package config

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTypedGetters(t *testing.T) {
	p := New()
	for _, kv := range [][2]string{{"n", "42"}, {"f", "1.5"}, {"b", "yes"}, {"d", "150ms"}, {"bad", "xyz"}} {
		p.Set(kv[0], kv[1])
	}
	if n, err := p.GetInt("n"); err != nil || n != 42 {
		t.Errorf("GetInt = %d, %v", n, err)
	}
	if f, err := p.GetFloat("f"); err != nil || f != 1.5 {
		t.Errorf("GetFloat = %g, %v", f, err)
	}
	if b, err := p.GetBool("b"); err != nil || !b {
		t.Errorf("GetBool = %v, %v", b, err)
	}
	if d, err := p.GetDuration("d"); err != nil || d != 150*time.Millisecond {
		t.Errorf("GetDuration = %v, %v", d, err)
	}
	for _, fn := range []func(string) error{
		func(k string) error { _, err := p.GetInt(k); return err },
		func(k string) error { _, err := p.GetFloat(k); return err },
		func(k string) error { _, err := p.GetBool(k); return err },
		func(k string) error { _, err := p.GetDuration(k); return err },
	} {
		if err := fn("bad"); err == nil {
			t.Error("bad value should error")
		}
		if err := fn("missing"); err == nil {
			t.Error("missing key should error")
		}
	}
	for s, want := range map[string]bool{"true": true, "1": true, "ON": true, "no": false, "0": false, "off": false} {
		p.Set("x", s)
		got, err := p.GetBool("x")
		if err != nil || got != want {
			t.Errorf("GetBool(%q) = %v, %v", s, got, err)
		}
	}
	// Unknown key: meaningful error naming known keys.
	_, err := p.Get("bogus")
	if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "n, f") {
		t.Errorf("error = %v", err)
	}
	if p.GetOr("bogus", "fb") != "fb" || p.GetOr("n", "fb") != "42" {
		t.Error("GetOr")
	}
}

func TestApplyArgs(t *testing.T) {
	p := New()
	rest, err := p.ApplyArgs([]string{"-DdataDir=./test", "run", "-DdoStore=false", "q1", "-DdataDir=./data"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0] != "run" || rest[1] != "q1" {
		t.Errorf("rest = %v", rest)
	}
	// A later -D overrides an earlier one; Keys lists each key once, in
	// the order it was first set.
	if v, _ := p.Get("dataDir"); v != "./data" {
		t.Errorf("dataDir = %q", v)
	}
	if keys := p.Keys(); !slices.Equal(keys, []string{"dataDir", "doStore"}) {
		t.Errorf("keys = %v", keys)
	}
	if _, err := p.ApplyArgs([]string{"-Dmalformed"}); err == nil {
		t.Error("malformed -D should error")
	}
	if _, err := p.ApplyArgs([]string{"-D=v"}); err == nil {
		t.Error("empty key -D should error")
	}
}
