// Command docscheck is the documentation linter behind `make docs-check`:
// it fails when an intra-repo markdown link in README.md, docs/ or the
// verify skill points at a file that does not exist, when a `go run` or
// `go test` command in their code names a package directory that does
// not exist, when a checked package lacks a package comment, when an
// exported identifier in a checked package lacks a doc comment, or when a
// comment in any Go file names a markdown file that does not exist. It runs
// on the standard library alone (go/parser + go/ast), so CI needs nothing
// beyond the Go toolchain.
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
// intra-repo links and go command paths must resolve.
var checkedMarkdown = []string{"README.md", "docs", ".claude/skills/verify/SKILL.md"}

func main() {
	var problems []string
	problems = append(problems, checkLinks()...)
	problems = append(problems, checkGodoc()...)
	problems = append(problems, checkGoComments()...)
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

// codeSpanRE matches an inline code span, which may wrap lines.
var codeSpanRE = regexp.MustCompile("`([^`]+)`")

// goCommandRE matches a go run or go test invocation up to the end of
// its shell command.
var goCommandRE = regexp.MustCompile(`\bgo (run|test)\b([^;|&]*)`)

// checkLinks verifies that every relative link target in the checked
// markdown files points at an existing file or directory, and that every
// go command in their code does. External schemes and pure anchors are
// skipped; an anchor suffix on a file link is stripped (anchor names
// themselves are not verified).
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
		problems = append(problems, checkCommands(file, string(data))...)
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

// checkCommands verifies that every `go run` and `go test` command in a
// fenced code block or an inline code span of one markdown file names
// existing package directories. Paths resolve against the repository
// root, where the commands are meant to run.
func checkCommands(file, text string) []string {
	var problems []string
	check := func(line int, code string) {
		for _, m := range goCommandRE.FindAllStringSubmatch(code, -1) {
			for _, dir := range packageDirs(m[1], strings.Fields(m[2])) {
				if info, err := os.Stat(dir); err != nil || !info.IsDir() {
					problems = append(problems, fmt.Sprintf("%s:%d: `go %s` names %s, which is not a directory", file, line, m[1], dir))
				}
			}
		}
	}
	// Fenced blocks are checked line by line and blanked out of the
	// prose, keeping its line numbers, before the spans are found.
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if fenced {
			check(i+1, line)
			lines[i] = ""
		}
	}
	prose := strings.Join(lines, "\n")
	for _, m := range codeSpanRE.FindAllStringSubmatchIndex(prose, -1) {
		line := 1 + strings.Count(prose[:m[0]], "\n")
		check(line, strings.Join(strings.Fields(prose[m[2]:m[3]]), " "))
	}
	return problems
}

// packageDirs returns the package directories a go run or go test
// argument list names: a go run's first ./ path (what follows is the
// program's arguments), every ./ path of a go test before -args. A
// trailing /... names the directory it recurses from.
func packageDirs(verb string, args []string) []string {
	var dirs []string
	for _, a := range args {
		if a == "-args" {
			break
		}
		a = strings.TrimRight(a, `)'",`)
		if !strings.HasPrefix(a, "./") {
			continue
		}
		dirs = append(dirs, strings.TrimSuffix(strings.TrimSuffix(a, "..."), "/"))
		if verb == "run" {
			break
		}
	}
	return dirs
}

// mdPathRE matches a markdown file path in a comment: README.md,
// docs/FORMAT.md, ../../README.md.
var mdPathRE = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// checkGoComments verifies that every markdown file a comment in a Go file
// names exists, relative to the repository root or to the file's
// directory. A comment citing a document that is gone sends its reader
// nowhere; it should state the reason itself. Hidden directories and
// testdata are skipped, and so is a path that is part of a URL.
func checkGoComments() []string {
	var problems []string
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				for _, m := range mdPathRE.FindAllStringIndex(c.Text, -1) {
					name := c.Text[m[0]:m[1]]
					inURL := m[0] > 0 && c.Text[m[0]-1] == ':'
					if inURL || exists(name) || exists(filepath.Join(filepath.Dir(path), name)) {
						continue
					}
					line := fset.Position(c.Pos()).Line + strings.Count(c.Text[:m[0]], "\n")
					problems = append(problems, fmt.Sprintf("%s:%d: comment names %s, which exists neither at the repository root nor beside the file", path, line, name))
				}
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, err.Error())
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
