// Command lintdoc enforces the repository's documentation floor, CI-side:
//
//   - every package under internal/ must carry a package-level godoc
//     comment ("// Package xyz ..."),
//   - every command under cmd/ must carry a command doc comment,
//   - in the fully documented packages (scheduler, msgq, pilot), every
//     exported top-level declaration — funcs, methods, types, and each
//     exported const/var group — must have a doc comment,
//   - in every package under internal/, every exported top-level func,
//     type, var and const must be selected by another package of the
//     module: a name nothing outside uses is unexported or deleted. Err…
//     names and types an exported declaration of their own package names
//     are exempt.
//
// It exits non-zero listing every violation, so `go run
// ./internal/tools/lintdoc` acts as the exported-comment check the docs
// CI job runs (a revive/golint subset with no external dependency).
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
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
	checkClosedSurface(root, report)

	if len(violations) > 0 {
		sort.Strings(violations)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "lintdoc: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("lintdoc: %d packages documented\n", len(dirs))
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
// const of a package under internal/ that no other package under root
// selects. Test files and the bench/ module count as selectors; methods are
// not checked. Two kinds of name are exempt: Err… sentinels and error types
// (callers match them with errors.Is and errors.As) and a type that one of
// its own package's exported declarations names in a signature, field or
// type.
func checkClosedSurface(root string, report func(string, ...any)) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		report("lintdoc: %v", err)
		return
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
		if !strings.HasSuffix(p, ".go") {
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
				for _, name := range exportedNames(file) {
					if used[dir][name.Name] || named[name.Name] || strings.HasPrefix(name.Name, "Err") {
						continue
					}
					p := fset.Position(name.Pos())
					report("%s:%d: exported %s is selected by no other package; unexport or delete it",
						filepath.ToSlash(p.Filename), p.Line, name.Name)
				}
			}
		}
	}
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
// consts declared in file; methods are not among them.
func exportedNames(file *ast.File) []*ast.Ident {
	var out []*ast.Ident
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
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					add(s.Names...)
				}
			}
		}
	}
	return out
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
