package main

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// sample is a value a field of the given type parses from, and what it
// parses to.
func sample(field any) (string, any) {
	switch field.(type) {
	case *string:
		return "v", "v"
	case *int:
		return "3", 3
	case *int64:
		return "3", int64(3)
	case *float64:
		return "0.5", 0.5
	case *bool:
		return "true", true
	case *time.Duration:
		return "2s", 2 * time.Second
	}
	return "", nil
}

// deref reads the value a row's field holds.
func deref(field any) any {
	switch f := field.(type) {
	case *string:
		return *f
	case *int:
		return *f
	case *int64:
		return *f
	case *float64:
		return *f
	case *bool:
		return *f
	case *time.Duration:
		return *f
	}
	return nil
}

// bindProps binds props for the command at index i of a fresh table.
func bindProps(props *config.Properties, i int) (*opts, command, error) {
	o := new(opts)
	c := commands(o)[i]
	var err error
	o.set, err = c.bind(props)
	return o, c, err
}

func bindArgs(t *testing.T, i int, args ...string) (*opts, command, error) {
	t.Helper()
	props := config.New(nil)
	if _, err := props.ApplyArgs(args); err != nil {
		t.Fatal(err)
	}
	return bindProps(props, i)
}

// TestCommandTable holds the command table to one statement per
// decision — every command once, every key one row (a key two commands
// share is the same field, metavar and bound) — and checks that each
// command binds each of its rows by the field's type and rejects a key of
// another command with an error naming the key and showing the command's
// usage, which names the keys it takes.
func TestCommandTable(t *testing.T) {
	table := commands(new(opts))
	if len(table) != 13 {
		t.Errorf("%d commands, want 13", len(table))
	}
	names := map[string]bool{}
	rows := map[string]string{}
	for _, c := range table {
		if names[c.name] {
			t.Errorf("command %s listed twice", c.name)
		}
		names[c.name] = true
		for _, p := range c.rows() {
			desc := fmt.Sprintf("%p %s %v", p.field, p.meta, p.atLeast1)
			if prev, ok := rows[p.key]; ok && prev != desc {
				t.Errorf("-D%s is two rows: %s and %s", p.key, prev, desc)
			}
			rows[p.key] = desc
		}
	}
	if len(rows) != 42 {
		t.Errorf("%d distinct keys, want 42", len(rows))
	}

	for i, c := range table {
		var required []string
		for _, p := range c.need {
			v, _ := sample(p.field)
			required = append(required, "-D"+p.key+"="+v)
		}
		for j, p := range c.rows() {
			v, want := sample(p.field)
			if want == nil {
				t.Fatalf("%s: -D%s sets an unsupported %T", c.name, p.key, p.field)
			}
			o, bound, err := bindArgs(t, i, append(required, "-D"+p.key+"="+v)...)
			if err != nil {
				t.Errorf("%s -D%s=%s: %v", c.name, p.key, v, err)
				continue
			}
			if got := deref(bound.rows()[j].field); got != want || !o.set[p.key] {
				t.Errorf("%s -D%s=%s bound %v (set %v), want %v", c.name, p.key, v, got, o.set[p.key], want)
			}
		}
		for key := range rows {
			if slices.ContainsFunc(c.rows(), func(p prop) bool { return p.key == key }) {
				continue
			}
			_, _, err := bindArgs(t, i, append(required, "-D"+key+"=1")...)
			if err == nil || !strings.Contains(err.Error(), "-D"+key) || !strings.Contains(err.Error(), c.usage()) {
				t.Errorf("%s -D%s = %v, want an error naming the key and showing %q", c.name, key, err, c.usage())
			}
		}
	}

	for _, bad := range [][]string{{"-Dmalformed", "list"}, {"-Dsched.worker=4", "run", "t4"}, {"-Dx=1", "suite"}} {
		if err := runW(&bytes.Buffer{}, bad); err == nil {
			t.Errorf("%v should fail", bad)
		}
	}
}

// TestDroppedSchedulerFlags: each sched.* property on its own puts a run
// on the scheduler; none is dropped because another is missing.
func TestDroppedSchedulerFlags(t *testing.T) {
	for _, flag := range []string{"-Dsched.workers=1", "-Dsched.retries=1", "-Dsched.timeout=1m"} {
		var out bytes.Buffer
		if err := runW(&out, []string{"run", "t4", flag}); err != nil {
			t.Fatalf("%s: %v", flag, err)
		}
		if !strings.HasPrefix(out.String(), "scheduler: ") {
			t.Errorf("%s ran without the scheduler:\n%s", flag, out.String())
		}
	}
}

// TestUsageMatchesDoc pins the package doc's usage block to the usage the
// command table generates.
func TestUsageMatchesDoc(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	want := "Usage:\n\n\t" + strings.Join(usage(), "\n\t") + "\n\n"
	if !strings.Contains(f.Doc.Text(), want) {
		t.Errorf("the package doc's usage block is not the generated usage:\n%s", want)
	}
}

// TestDocsNameOnlyKnownProperties: every -Dkey the user docs name is a
// row of some command. CHANGES.md is history and is not read.
func TestDocsNameOnlyKnownProperties(t *testing.T) {
	known := map[string]bool{"key": true} // the -Dkey=value syntax itself
	for _, c := range commands(new(opts)) {
		for _, p := range c.rows() {
			known[p.key] = true
		}
	}
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../README.md", "../../.claude/skills/verify/SKILL.md")
	re := regexp.MustCompile(`-D([A-Za-z][A-Za-z0-9_.]*)`)
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(data), -1) {
			if key := strings.TrimRight(m[1], "."); !known[key] {
				t.Errorf("%s names -D%s, which no command takes", path, key)
			}
		}
	}
}

// FuzzPropertyArgs binds an arbitrary argument vector (NUL-separated)
// for every command: the binder never panics, and it either fails or sets
// only keys of the command's rows, the same way every time.
func FuzzPropertyArgs(f *testing.F) {
	for _, seed := range []string{
		"-Dsched.workers=4\x00-Djournal.dir=j",
		"-Dsched.timeout=nonsense",
		"-Dsched.shards=0\x00-Dsched.shard=1",
		"-Dcollector.inflight=99999999999999999999999",
		"-Dcollector.inflight=0",
		"-Dquery.confidence=NaN\x00-Dquery.norefresh=yes\x00-Dquery.maxage=-1h",
		"-Dcollector.dir=d\x00-Dcollector.url=http://x\x00-Dsched.shards=2",
		"-Dmerge.strict=\x00-Dout.dir=",
		"-Dmalformed",
		"run\x00t4\x00-D=x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		props := config.New(nil)
		if _, err := props.ApplyArgs(strings.Split(s, "\x00")); err != nil {
			return
		}
		for i := range commands(new(opts)) {
			o1, c, err1 := bindProps(props, i)
			o2, _, err2 := bindProps(props, i)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: binding twice gave %v, then %v", c.name, err1, err2)
			}
			if err1 != nil {
				continue
			}
			for key := range o1.set {
				if !slices.ContainsFunc(c.rows(), func(p prop) bool { return p.key == key }) {
					t.Fatalf("%s bound -D%s, which is not one of its rows", c.name, key)
				}
			}
			// %v, not reflect.DeepEqual: a NaN bound twice must compare equal.
			if a, b := fmt.Sprintf("%+v", o1), fmt.Sprintf("%+v", o2); a != b {
				t.Fatalf("%s: binding twice gave\n%s\nthen\n%s", c.name, a, b)
			}
		}
	})
}
