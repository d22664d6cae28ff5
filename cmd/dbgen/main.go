// Command dbgen generates the TPC-H-like catalog as CSV files.
//
// Usage:
//
//	dbgen [-sf 0.1] [-seed 42] [-out DIR] [-tables lineitem,orders]
//
// Every value is rendered in C locale; the generator is deterministic per
// (sf, seed) — the repeatability principle applied to data generation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/tpch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbgen", flag.ContinueOnError)
	sf := fs.Float64("sf", 0.1, "scale factor")
	seed := fs.Uint64("seed", 42, "generator seed")
	out := fs.String("out", ".", "output directory")
	tables := fs.String("tables", "", "comma-separated table subset (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	db, err := tpch.Gen(*sf, *seed)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	var unknown []string
	for _, t := range strings.Split(*tables, ",") {
		if t = strings.TrimSpace(t); t == "" {
			continue
		}
		if _, err := db.Table(t); err != nil {
			unknown = append(unknown, strconv.Quote(t))
		}
		want[t] = true
	}
	if len(unknown) > 0 {
		return fmt.Errorf("-tables: unknown table(s) %s; tables: %s",
			strings.Join(unknown, ", "), strings.Join(db.TableNames(), ","))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, name := range db.TableNames() {
		if len(want) > 0 && !want[name] {
			continue
		}
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		path := filepath.Join(*out, name+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("%-10s %8d rows  %s\n", name, t.NumRows(), path)
	}
	return nil
}
