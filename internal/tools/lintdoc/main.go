// Command lintdoc enforces the repository's documentation floor, CI-side:
//
//   - every package under internal/ must carry a package-level godoc
//     comment ("// Package xyz ..."),
//   - every command under cmd/ must carry a command doc comment,
//   - in the fully documented packages (scheduler, msgq, pilot), every
//     exported top-level declaration — funcs, methods, types, and each
//     exported const/var group — must have a doc comment,
//   - in every package under internal/, every exported top-level func,
//     type, var and const must be selected by a program: by a non-test
//     file of another package, in the module or in the bench/ module. A
//     name only tests use is unexported or deleted. Err… names, types an
//     exported declaration of their own package names, and the test
//     harnesses in testOnly are exempt,
//   - every func and method declared in a non-test file under internal/
//     must be linked into a program under cmd/ or in the bench/ module, or
//     be listed in harness with its reason,
//   - README.md's layout table must name every directory directly under
//     internal/ in its first column, and every internal/… path it names
//     there must exist.
//
// It exits non-zero listing every violation, so `go run
// ./internal/tools/lintdoc` acts as the exported-comment check the docs
// CI job runs (a revive/golint subset with no external dependency). On
// success it prints how many top-level names internal/ exports, how many
// with its exported methods, and how many exported fields its exported
// struct types declare, then the lines of Go outside bench/ that are
// neither blank nor comment, in non-test and in test files.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// fullDoc lists the packages whose exported identifiers must all carry
// doc comments (the runtime's load-bearing public surfaces).
var fullDoc = map[string]bool{
	"internal/scheduler": true,
	"internal/msgq":      true,
	"internal/pilot":     true,
}

// testOnly lists the exported names under internal/ that only tests select,
// keyed "dir.Name", each kept for a reason no program gives.
var testOnly = map[string]bool{
	// The TestMain harness of the packages under the goroutine leak check.
	"internal/leakcheck.Main": true,
	// Synthetic machines: the exact-count tests and ablations of other
	// packages build pools of a chosen size and shape on them.
	"internal/platform.New":         true,
	"internal/platform.NewMixed":    true,
	"internal/platform.NewTopology": true,
	// The root best-fit benchmarks run it without starvation bounds, which
	// PolicyByName cannot build.
	"internal/scheduler.BestFit": true,
}

// harness lists the funcs and methods under internal/ that no program links
// and tests need, keyed as checkLinked keys them, each with its reason: a
// fault injector, or an oracle for a behaviour no program shows.
var harness = map[string]string{
	"internal/core.(*Service).Kill":              "fault injector: crashes the live instance's process",
	"internal/pilot.(*Service).Kill":             "fault injector: crashes a service process for the liveness probe to find",
	"internal/journal.(*Writer).Crashed":         "oracle: whether an injected crash killed the writer",
	"internal/core.(*Session).RegisterRemote":    "the paper's REST remote path, which no program serves: tests register a gateway",
	"internal/restapi.(*Gateway).Endpoint":       "the paper's REST remote path: the record RegisterRemote publishes",
	"internal/metrics.Breakdown.Get":             "oracle: one part of a BT/RT breakdown; programs print the whole",
	"internal/proto.Timing.QueueTime":            "oracle: a reply's queue wait alone; programs print the RT breakdown",
	"internal/msgq.(*TCPServer).DroppedReplies":  "oracle: replies lost to closed connections, no program reports them yet",
	"internal/msgq.(*TCPClient).LateReplies":     "oracle: replies that came after their caller gave up, no program reports them yet",
	"internal/platform.(*Node).FreeCores":        "oracle: free capacity, which programs see only as placements",
	"internal/platform.(*Node).FreeGPUs":         "oracle: free capacity, which programs see only as placements",
	"internal/platform.(*Node).FreeMemGB":        "oracle: free capacity, which programs see only as placements",
	"internal/platform.(*Platform).FreeCores":    "oracle: free capacity, which programs see only as placements",
	"internal/platform.(*Platform).FreeGPUs":     "oracle: free capacity, which programs see only as placements",
	"internal/platform.(*Platform).TotalCores":   "oracle: a machine's size, which programs see only as placements",
	"internal/platform.(*Platform).TotalGPUs":    "oracle: a machine's size, which programs see only as placements",
	"internal/scheduler.(*Scheduler).Policy":     "oracle: which policy a pilot's description gave its scheduler",
	"internal/service.(*EndpointRegistry).Fence": "oracle: the incarnation fence a recovery raises",
	"internal/states.(*Machine).History":         "oracle: the transitions a machine went through",
	"internal/states.(*Machine).EnteredAt":       "oracle: when a machine entered a state",
	"internal/states.(*Machine).Between":         "oracle: the time a machine spent between two states",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var violations []string
	report := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	dirs := packageDirs(root, report)
	for _, dir := range dirs {
		checkDir(root, dir, report)
	}
	names, methods, fields := checkClosedSurface(root, testOnly, report)
	checkLinked(root, harness, report)
	if readme, err := os.ReadFile(filepath.Join(root, "README.md")); err != nil {
		report("lintdoc: %v", err)
	} else {
		checkLayout(root, readme, report)
	}

	if len(violations) > 0 {
		sort.Strings(violations)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "lintdoc: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	code, tests := lineTotals(root, report)
	fmt.Printf("lintdoc: %d packages documented; internal/ exports %d top-level names, %d with methods, %d struct fields\n",
		len(dirs), names, names+methods, fields)
	fmt.Printf("lintdoc: Go outside bench/: %d code lines, %d test lines (neither blank nor comment)\n", code, tests)
}

// layoutPath matches a backquoted internal/… path in a table cell.
var layoutPath = regexp.MustCompile("`(internal/[^`]*)`")

// checkLayout holds readme's layout table (the first table after its
// "## Layout" heading) to the tree under root: each directory directly
// under internal/ is named in the first column, and each internal/… path
// named there exists.
func checkLayout(root string, readme []byte, report func(string, ...any)) {
	named := map[string]bool{}
	inLayout, inTable := false, false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "## ") {
			inLayout = line == "## Layout"
			continue
		}
		if !inLayout {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		first := strings.SplitN(line, "|", 3)[1]
		for _, m := range layoutPath.FindAllStringSubmatch(first, -1) {
			p := strings.TrimSuffix(m[1], "/")
			named[p] = true
			if _, err := os.Stat(filepath.Join(root, p)); err != nil {
				report("README.md: layout table names %s, which does not exist", p)
			}
		}
	}
	ents, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		report("lintdoc: %v", err)
		return
	}
	for _, e := range ents {
		if p := "internal/" + e.Name(); e.IsDir() && !named[p] {
			report("README.md: layout table does not name %s", p)
		}
	}
}

// lineTotals returns the lines that are neither blank nor comment in the
// non-test and in the test Go files under root, bench/, testdata and
// hidden directories aside.
func lineTotals(root string, report func(string, ...any)) (code, tests int) {
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == filepath.Join(root, "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			report("lintdoc: %v", err)
			return nil
		}
		if strings.HasSuffix(p, "_test.go") {
			tests += codeLines(src)
		} else {
			code += codeLines(src)
		}
		return nil
	})
	return code, tests
}

// codeLines counts the lines of src that hold a token other than a comment;
// every line a raw string spans counts.
func codeLines(src []byte) int {
	file := token.NewFileSet().AddFile("", -1, len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, scanner.ScanComments)
	n, last := 0, 0
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return n
		}
		if tok == token.COMMENT || (tok == token.SEMICOLON && lit == "\n") { // an inserted semicolon
			continue
		}
		first := file.Line(pos)
		end := first + strings.Count(lit, "\n")
		first = max(first, last+1)
		if end >= first {
			n, last = n+end-first+1, end
		}
	}
}

// packageDirs returns every directory under internal/ and cmd/, testdata
// trees aside, that contains non-test Go files, relative to root.
func packageDirs(root string, report func(string, ...any)) []string {
	var dirs []string
	for _, top := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return nil
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			ents, err := os.ReadDir(path)
			if err != nil {
				report("lintdoc: %s: %v", path, err)
				return nil
			}
			for _, e := range ents {
				name := e.Name()
				if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
					rel, _ := filepath.Rel(root, path)
					dirs = append(dirs, filepath.ToSlash(rel))
					break
				}
			}
			return nil
		})
	}
	sort.Strings(dirs)
	return dirs
}

func checkDir(root, dir string, report func(string, ...any)) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		report("%s: parse: %v", dir, err)
		return
	}
	for _, pkg := range pkgs {
		if !hasPackageDoc(pkg) {
			report("%s: package %s has no package-level doc comment", dir, pkg.Name)
		}
		if !fullDoc[dir] {
			continue
		}
		for fileName, file := range pkg.Files {
			checkExported(fset, fileName, file, report)
		}
	}
}

// hasPackageDoc reports whether any file of the package carries a
// package doc comment.
func hasPackageDoc(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true
		}
	}
	return false
}

// checkExported reports every exported top-level declaration in file
// that lacks a doc comment.
func checkExported(fset *token.FileSet, fileName string, file *ast.File, report func(string, ...any)) {
	pos := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			label := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				label = fmt.Sprintf("(%s).%s", recvName(d.Recv.List[0].Type), d.Name.Name)
			}
			report("%s: exported %s has no doc comment", pos(d), label)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, s := range d.Specs {
					ts := s.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil {
						report("%s: exported type %s has no doc comment", pos(ts), ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				// A group comment covers the whole block; otherwise each
				// exported spec needs its own.
				if d.Doc != nil {
					continue
				}
				for _, s := range d.Specs {
					vs := s.(*ast.ValueSpec)
					if vs.Doc != nil {
						continue
					}
					for _, name := range vs.Names {
						if name.IsExported() {
							report("%s: exported %s %s has no doc comment",
								pos(vs), strings.ToLower(d.Tok.String()), name.Name)
						}
					}
				}
			}
		}
	}
}

// recvName renders a method receiver type for messages.
func recvName(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.StarExpr:
		return "*" + recvName(x.X)
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return recvName(x.X)
	}
	return "?"
}

// checkClosedSurface reports every exported top-level func, type, var and
// const of a package under internal/ that no non-test file of another
// package under root selects; the bench/ module's files count, test files
// do not, and methods are not checked. Three kinds of name are exempt: Err…
// sentinels and error types (callers match them with errors.Is and
// errors.As), a type that one of its own package's exported declarations
// names in a signature, field or type, and the "dir.Name" keys of allow.
// It returns the exported top-level names, the exported methods and the
// exported fields of exported struct types it found in the non-test files
// of those packages.
func checkClosedSurface(root string, allow map[string]bool, report func(string, ...any)) (names, methods, fields int) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		report("lintdoc: %v", err)
		return 0, 0, 0
	}
	used := map[string]map[string]bool{} // internal package dir → names selected from outside
	fset := token.NewFileSet()
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			report("%s: parse: %v", p, err)
			return nil
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		local := map[string]string{} // import name → internal package dir
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ipath, module+"/")
			if !ok || !strings.HasPrefix(dir, "internal/") || dir == filepath.ToSlash(rel) {
				continue
			}
			name := path.Base(ipath)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = dir
		}
		if len(local) == 0 {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local[x.Name] != "" {
					dir := local[x.Name]
					if used[dir] == nil {
						used[dir] = map[string]bool{}
					}
					used[dir][sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})

	for _, dir := range packageDirs(root, report) {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			report("%s: parse: %v", dir, err)
			continue
		}
		for _, pkg := range pkgs {
			if pkg.Name == "main" {
				continue
			}
			named := namedTypes(pkg)
			for _, file := range pkg.Files {
				declared, m, f := exportedNames(file)
				names, methods, fields = names+len(declared), methods+m, fields+f
				for _, name := range declared {
					if used[dir][name.Name] || named[name.Name] || strings.HasPrefix(name.Name, "Err") || allow[dir+"."+name.Name] {
						continue
					}
					p := fset.Position(name.Pos())
					report("%s:%d: exported %s is selected by no program outside its package; unexport or delete it",
						filepath.ToSlash(p.Filename), p.Line, name.Name)
				}
			}
		}
	}
	return names, methods, fields
}

// namedTypes returns the identifiers that the package's exported
// declarations mention: in the signatures of exported funcs and of exported
// methods on exported types, in the exported fields and methods of exported
// types, and in the types of exported vars and consts. A type's mention of
// itself does not count.
func namedTypes(pkg *ast.Package) map[string]bool {
	named := map[string]bool{}
	collect := func(self string, n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's name
			case *ast.Ident:
				if x.Name != self {
					named[x.Name] = true
				}
			}
			return true
		})
	}
	// fields collects the exported members of a struct or interface
	// type, and the whole expression of any other type.
	fields := func(self string, t ast.Expr) {
		var list *ast.FieldList
		switch x := t.(type) {
		case *ast.StructType:
			list = x.Fields
		case *ast.InterfaceType:
			list = x.Methods
		default:
			collect(self, t)
			return
		}
		for _, f := range list.List {
			exported := len(f.Names) == 0 // embedded
			for _, id := range f.Names {
				exported = exported || id.IsExported()
			}
			if exported {
				collect(self, f.Type)
			}
		}
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					if recv := recvName(d.Recv.List[0].Type); !ast.IsExported(strings.TrimPrefix(recv, "*")) {
						continue
					}
				}
				collect("", d.Type)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							fields(s.Name.Name, s.Type)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								collect("", s.Type)
								break
							}
						}
					}
				}
			}
		}
	}
	return named
}

// exportedNames returns the exported top-level funcs, types, vars and
// consts declared in file, and counts apart its exported methods and the
// exported fields of its exported struct types (an embedded field of a type
// of its own package by that type's name).
func exportedNames(file *ast.File) (out []*ast.Ident, methods, fields int) {
	add := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id.IsExported() {
				out = append(out, id)
			}
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			} else if d.Name.IsExported() {
				methods++
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name)
					if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
						for _, f := range st.Fields.List {
							if len(f.Names) == 0 && ast.IsExported(strings.TrimPrefix(recvName(f.Type), "*")) {
								fields++
							}
							for _, id := range f.Names {
								if id.IsExported() {
									fields++
								}
							}
						}
					}
				case *ast.ValueSpec:
					add(s.Names...)
				}
			}
		}
	}
	return out, methods, fields
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// checkLinked reports every func and method declared in a non-test file of a
// package under internal/ (leakcheck and tools aside) that no program links
// and allow does not list. The programs are the main packages under cmd/ and
// those of the nested bench/ module, built with inlining off, since an
// inlined callee leaves no symbol. A func is linked when its symbol, type
// arguments and closure suffixes stripped, is in one of their symbol tables.
// allow is keyed "dir.Func", "dir.T.M" or "dir.(*T).M".
func checkLinked(root string, allow map[string]string, report func(string, ...any)) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		report("lintdoc: %v", err)
		return
	}
	linked, err := linkedSymbols(root)
	if err != nil {
		report("lintdoc: %v", err)
		return
	}
	fset := token.NewFileSet()
	for _, dir := range packageDirs(root, report) {
		if !strings.HasPrefix(dir, "internal/") || dir == "internal/leakcheck" || strings.HasPrefix(dir, "internal/tools/") {
			continue
		}
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			report("%s: parse: %v", dir, err)
			continue
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
						continue
					}
					key := dir + "." + fn.Name.Name
					if fn.Recv != nil {
						recv := recvName(fn.Recv.List[0].Type)
						if strings.HasPrefix(recv, "*") {
							recv = "(" + recv + ")"
						}
						key = dir + "." + recv + "." + fn.Name.Name
					}
					if !linked[module+"/"+key] && allow[key] == "" {
						p := fset.Position(fn.Pos())
						report("%s:%d: %s is linked into no program; delete it, or list it in harness with the reason a test needs it",
							filepath.ToSlash(p.Filename), p.Line, key)
					}
				}
			}
		}
	}
}

// closure matches the suffix the compiler gives a func literal, a deferred
// or go'd call's wrapper, and a method value.
var closure = regexp.MustCompile(`(\.(func|deferwrap|gowrap)\d+.*|-fm)$`)

// linkedSymbols builds the programs into a temporary directory and returns
// the text symbols of all of them, type arguments and closure suffixes
// stripped.
func linkedSymbols(root string) (map[string]bool, error) {
	bin, err := os.MkdirTemp("", "lintdoc")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(bin)
	builds := [][2]string{{root, "./cmd/..."}}
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
		builds = append(builds, [2]string{filepath.Join(root, "bench"), "./..."})
	}
	for _, b := range builds {
		cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), b[1])
		cmd.Dir = b[0]
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build %s in %s: %v\n%s", b[1], b[0], err, out)
		}
	}
	ents, err := os.ReadDir(bin)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, e := range ents {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// address, kind, then the name, which may hold spaces
			if f := strings.SplitN(strings.TrimSpace(line), " ", 3); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[closure.ReplaceAllString(stripTypeArgs(f[2]), "")] = true
			}
		}
	}
	return linked, nil
}

// stripTypeArgs drops every bracketed type argument list from a symbol.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
