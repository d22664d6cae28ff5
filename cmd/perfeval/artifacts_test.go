package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// artifactDir holds, per experiment, the stdout of `perfeval run <id>` as
// the build that pinned the artifacts printed it. The files are written
// once and never regenerated (testdata/golden/SHA256SUMS pins them too), so
// a change that moves a published table or figure fails here and has to
// argue for the new numbers instead of re-recording them.
var artifactDir = filepath.Join("..", "..", "testdata", "golden", "artifacts")

// TestArtifactsMatchGolden runs every experiment through the CLI and holds
// its output to its golden file byte for byte, nothing masked.
func TestArtifactsMatchGolden(t *testing.T) {
	exps := repro.Experiments()
	files, err := filepath.Glob(filepath.Join(artifactDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(exps) {
		t.Errorf("%s holds %d artifact(s) for %d experiment(s)", artifactDir, len(files), len(exps))
	}
	for _, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join(artifactDir, e.ID+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := runW(&got, []string{"run", e.ID}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("perfeval run %s differs from %s (- golden, + now):\n%s", e.ID, path, diffLines(want, got.Bytes()))
			}
		})
	}
}

// diffLines renders the block where got departs from want: the lines
// between their common leading and common trailing lines, want's marked -
// and got's marked +.
func diffLines(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	pre := 0
	for pre < len(w) && pre < len(g) && w[pre] == g[pre] {
		pre++
	}
	suf := 0
	for suf < len(w)-pre && suf < len(g)-pre && w[len(w)-1-suf] == g[len(g)-1-suf] {
		suf++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "@@ line %d @@\n", pre+1)
	for _, l := range w[pre : len(w)-suf] {
		b.WriteString("- " + l + "\n")
	}
	for _, l := range g[pre : len(g)-suf] {
		b.WriteString("+ " + l + "\n")
	}
	return b.String()
}
