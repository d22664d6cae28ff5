// Command docscheck is the documentation linter behind `make docs-check`:
// it fails when intra-repo markdown links in README.md or docs/ point at
// files that do not exist, when a checked package lacks a package
// comment, or when an exported identifier in a checked package lacks a
// doc comment. It runs on the standard library alone (go/parser +
// go/ast), so CI needs nothing beyond the Go toolchain.
//
// Usage (from the repository root):
//
//	go run ./tools/docscheck
//
// The package list mirrors the subsystems whose doc contracts the
// documentation layer promises (see docs/ARCHITECTURE.md); extend
// checkedPackages when a new subsystem lands.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// checkedPackages are the directories whose exported identifiers must
// carry doc comments. Test files are excluded; external test packages
// are skipped.
var checkedPackages = []string{
	".", // the public repro package at the repository root
	"internal/framelog",
	"internal/groupcommit",
	"internal/runstore",
	"internal/runstore/shardstore",
	"internal/runstore/archivestore",
	"internal/runstore/storetest",
	"internal/sched",
	"internal/adaptive",
	"internal/harness",
	"internal/collector",
	"internal/collector/client",
	"internal/collector/soaktest",
	"internal/obs",
	"internal/warehouse",
}

// checkedMarkdown are the markdown files (or directories of them) whose
// intra-repo links must resolve.
var checkedMarkdown = []string{"README.md", "docs"}

func main() {
	var problems []string
	problems = append(problems, checkLinks()...)
	problems = append(problems, checkGodoc()...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// linkRE matches markdown link targets: [text](target).
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks verifies that every relative link target in the checked
// markdown files points at an existing file or directory. External
// schemes and pure anchors are skipped; an anchor suffix on a file link
// is stripped (anchor names themselves are not verified).
func checkLinks() []string {
	var problems []string
	var files []string
	for _, root := range checkedMarkdown {
		info, err := os.Stat(root)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", root, err))
			continue
		}
		if !info.IsDir() {
			files = append(files, root)
			continue
		}
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", root, err))
		}
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: broken link %q (%s does not exist)", file, i+1, m[1], resolved))
				}
			}
		}
	}
	return problems
}

// checkGodoc verifies that each checked package has a package comment
// and that every exported top-level identifier — functions, methods on
// exported receivers, types, and const/var groups — carries a doc
// comment.
func checkGodoc() []string {
	var problems []string
	for _, dir := range checkedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			hasPkgDoc := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					hasPkgDoc = true
				}
			}
			if !hasPkgDoc {
				problems = append(problems, fmt.Sprintf("%s: package %s has no package comment (add a doc.go)", dir, name))
			}
			for fileName, f := range pkg.Files {
				problems = append(problems, checkFileDecls(fset, fileName, f)...)
			}
		}
	}
	return problems
}

// checkFileDecls reports exported declarations without doc comments in
// one parsed file.
func checkFileDecls(fset *token.FileSet, fileName string, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !receiverExported(d.Recv) {
				continue // a method on an unexported type is not API
			}
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			report(d.Pos(), kind, d.Name.Name)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil {
						report(ts.Pos(), "type", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				if d.Doc != nil {
					continue // a group comment covers the whole block
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, n := range vs.Names {
						if n.IsExported() {
							report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverExported reports whether a method's receiver names an
// exported type.
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
