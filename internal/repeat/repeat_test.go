package repeat

import (
	"strings"
	"testing"
	"time"
)

func goodSuite() *Suite {
	return &Suite{
		Name:         "perfeval-paper",
		Requirements: []string{"Go 1.22+", "no network access needed"},
		Install:      "go build ./...",
		Layout:       DefaultLayout(),
		Experiments: []Experiment{
			{ID: "t1", Description: "server/client output table", Script: "perfeval run t1",
				OutputPath: "res/t1.txt", ExpectedDuration: 5 * time.Second, Idempotent: true},
			{ID: "f2", Description: "memory wall figure", Script: "perfeval run f2",
				OutputPath: "graphs/f2.eps", ExpectedDuration: 2 * time.Second, Idempotent: true,
				ExtraInstall: "gnuplot"},
			{ID: "load", Description: "reload database", Script: "dbgen -sf 1",
				OutputPath: "data/", ExpectedDuration: 10 * time.Second, Idempotent: false},
		},
	}
}

func TestSuiteValidate(t *testing.T) {
	if err := goodSuite().Validate(); err != nil {
		t.Fatalf("good suite rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Suite)
	}{
		{"no name", func(s *Suite) { s.Name = "" }},
		{"no install", func(s *Suite) { s.Install = "" }},
		{"no requirements", func(s *Suite) { s.Requirements = nil }},
		{"no experiments", func(s *Suite) { s.Experiments = nil }},
		{"experiment without id", func(s *Suite) { s.Experiments[0].ID = "" }},
		{"duplicate id", func(s *Suite) { s.Experiments[1].ID = "t1" }},
		{"no script", func(s *Suite) { s.Experiments[0].Script = "" }},
		{"no output path", func(s *Suite) { s.Experiments[0].OutputPath = "" }},
		{"no duration", func(s *Suite) { s.Experiments[0].ExpectedDuration = 0 }},
	}
	for _, c := range cases {
		s := goodSuite()
		c.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestInstructions(t *testing.T) {
	s := goodSuite()
	doc := s.Instructions()
	for _, want := range []string{
		"# Repeatability instructions: perfeval-paper",
		"Go 1.22+",
		"go build ./...",
		"### t1 — server/client output table",
		"Run: `perfeval run t1`",
		"Output: `res/t1.txt`",
		"Expected duration: 5s",
		"Extra installation: `gnuplot`",
		"WARNING: not idempotent",
		"Total expected duration: 17s",
		"source/ bin/ data/ res/ graphs",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("instructions missing %q", want)
		}
	}
}

func TestSIGMOD2008Data(t *testing.T) {
	charts := SIGMOD2008()
	if len(charts) != 3 {
		t.Fatalf("charts = %d", len(charts))
	}
	for _, c := range charts {
		if !c.Consistent() {
			t.Errorf("%s: counts do not sum to %d", c.Title, c.Total)
		}
		if !c.FromFigure {
			t.Errorf("%s: per-category splits must be marked as figure estimates", c.Title)
		}
	}
	h := SIGMOD2008Headline()
	if h.Submissions != 436 || h.ProvidedCode != 298 || h.Accepted != 78 ||
		h.RejectedVer != 11 || h.TotalVerified != 64 {
		t.Errorf("headline = %+v", h)
	}
	// The accepted chart has five categories (incl. excuses and
	// no-submission); the verified-only charts have three.
	if len(charts[0].Counts) != 5 || len(charts[1].Counts) != 3 || len(charts[2].Counts) != 3 {
		t.Error("category structure wrong")
	}
	// Cross-check: all-verified = accepted-verified (all+some+none) +
	// rejected-verified.
	acceptedVerified := charts[0].Counts[AllRepeated] + charts[0].Counts[SomeRepeated] + charts[0].Counts[NoneRepeated]
	if acceptedVerified+charts[1].Total != charts[2].Total {
		t.Errorf("verified accounting: %d + %d != %d", acceptedVerified, charts[1].Total, charts[2].Total)
	}
}
