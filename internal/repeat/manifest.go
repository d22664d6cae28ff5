// Package repeat implements the paper's Repeatability chapter: experiment
// suites that another human (your supervisor, your colleagues, yourself
// three years later, future researchers) can re-run. A Suite is the
// machine-checkable version of the paper's documentation checklist — what
// installation requires, and for each experiment: extra installation,
// the script to run, where to look for the output, and how long it takes.
// It also ships the SIGMOD 2008 repeatability-effort outcome data the
// paper reports.
package repeat

import (
	"fmt"
	"strings"
	"time"
)

// Experiment is one entry of a repeatable suite.
type Experiment struct {
	ID          string
	Description string
	// Script is the command that regenerates the experiment end to end.
	Script string
	// ExtraInstall names additional setup beyond the suite-level
	// installation ("" when none).
	ExtraInstall string
	// OutputPath is where the generated table/graph lands.
	OutputPath string
	// ExpectedDuration tells the re-runner what to budget (the paper's
	// war story: an undeclared 40-day data-preparation step).
	ExpectedDuration time.Duration
	// Idempotent records whether re-running the script from its output
	// state is safe. The paper's longest war story is an experiment
	// that modified the database and could not simply be re-run.
	Idempotent bool
}

// Suite is a documented, runnable collection of experiments.
type Suite struct {
	Name string
	// Requirements lists what the installation requires (hardware,
	// software versions).
	Requirements []string
	// Install is the suite-level installation command.
	Install string
	// Experiments in presentation order.
	Experiments []Experiment
	// Layout is the directory convention (the paper suggests source,
	// bin, data, res, graphs).
	Layout []string
}

// DefaultLayout is the paper's suggested directory structure.
func DefaultLayout() []string { return []string{"source", "bin", "data", "res", "graphs"} }

// Validate enforces the documentation checklist: every experiment needs an
// id, a script, an output location, and an expected duration; ids must be
// unique; the suite needs install instructions and requirements.
func (s *Suite) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("repeat: suite needs a name")
	}
	if s.Install == "" {
		return fmt.Errorf("repeat: suite %q: document how to install (\"what the installation requires; how to install\")", s.Name)
	}
	if len(s.Requirements) == 0 {
		return fmt.Errorf("repeat: suite %q: list installation requirements", s.Name)
	}
	if len(s.Experiments) == 0 {
		return fmt.Errorf("repeat: suite %q has no experiments", s.Name)
	}
	seen := map[string]bool{}
	for i, e := range s.Experiments {
		switch {
		case e.ID == "":
			return fmt.Errorf("repeat: suite %q: experiment %d has no id", s.Name, i)
		case seen[e.ID]:
			return fmt.Errorf("repeat: suite %q: duplicate experiment id %q", s.Name, e.ID)
		case e.Script == "":
			return fmt.Errorf("repeat: experiment %q: document the script to run", e.ID)
		case e.OutputPath == "":
			return fmt.Errorf("repeat: experiment %q: document where to look for the graph/table", e.ID)
		case e.ExpectedDuration <= 0:
			return fmt.Errorf("repeat: experiment %q: document how long it takes", e.ID)
		}
		seen[e.ID] = true
	}
	return nil
}

// TotalExpectedDuration sums the declared durations — the number a
// repeatability committee reads first.
func (s *Suite) TotalExpectedDuration() time.Duration {
	var total time.Duration
	for _, e := range s.Experiments {
		total += e.ExpectedDuration
	}
	return total
}

// Instructions renders the suite's README: installation, then per
// experiment the script, output location, and expected runtime — the four
// items the paper says to specify.
func (s *Suite) Instructions() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Repeatability instructions: %s\n\n", s.Name)
	b.WriteString("## Requirements\n\n")
	for _, r := range s.Requirements {
		fmt.Fprintf(&b, "- %s\n", r)
	}
	fmt.Fprintf(&b, "\n## Installation\n\n    %s\n\n", s.Install)
	if len(s.Layout) > 0 {
		fmt.Fprintf(&b, "## Directory layout\n\n    %s\n\n", strings.Join(s.Layout, "/ "))
	}
	b.WriteString("## Experiments\n\n")
	for _, e := range s.Experiments {
		fmt.Fprintf(&b, "### %s — %s\n\n", e.ID, e.Description)
		if e.ExtraInstall != "" {
			fmt.Fprintf(&b, "- Extra installation: `%s`\n", e.ExtraInstall)
		}
		fmt.Fprintf(&b, "- Run: `%s`\n", e.Script)
		fmt.Fprintf(&b, "- Output: `%s`\n", e.OutputPath)
		fmt.Fprintf(&b, "- Expected duration: %s\n", e.ExpectedDuration)
		if !e.Idempotent {
			b.WriteString("- WARNING: not idempotent; restore the initial state before re-running\n")
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "Total expected duration: %s\n", s.TotalExpectedDuration())
	return b.String()
}
