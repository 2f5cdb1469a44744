// Command lokidoclint enforces godoc hygiene: every exported symbol of the
// target packages — package clause, types, functions, methods on exported
// types, and exported const/var declarations — must carry a doc comment.
// The CI docs job runs it over every package of the module; it exits
// non-zero listing every undocumented symbol.
//
// With -unreached it is a gate on exported API that nothing needs instead.
// It type-checks, from source and with the standard library only, every
// package under the root directory, the nested bench/ module included, and
// lists three kinds of exported identifier (package-level names, methods
// and struct fields) declared under internal/:
//
//   - unreached: no non-test code names it. A method counts as reached when
//     its receiver implements a loaded interface that names it.
//   - never-set: a struct field that no non-test code writes with a
//     composite-literal key, a positional literal, an assignment, ++/-- or
//     &x.F.
//   - package-local: no other package names it, in code or in tests.
//
// It exits non-zero if any entry is missing from cmd/lokidoclint/unreached.txt
// or if an entry of that allowlist is no longer found, so the allowlist can
// only shrink. Each allowlist line reads "kind name reason". It also prints
// the count of exported identifiers under internal/ and of the root
// module's non-test Go lines.
//
// Usage:
//
//	lokidoclint [package-dir ...]   # default: .
//	lokidoclint -unreached [root]   # default: .
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	unreached := flag.Bool("unreached", false, "list exported identifiers under internal/ that nothing needs exported, against cmd/lokidoclint/unreached.txt")
	flag.Parse()
	dirs := flag.Args()
	if *unreached {
		root := "."
		if len(dirs) > 0 {
			root = dirs[0]
		}
		ok, err := unreachedGate(root, filepath.Join(root, "cmd", "lokidoclint", "unreached.txt"), os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lokidoclint: %v\n", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	var missing []string
	for _, dir := range dirs {
		m, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lokidoclint: %v\n", err)
			os.Exit(2)
		}
		missing = append(missing, m...)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "lokidoclint: %d exported symbol(s) lack doc comments:\n", len(missing))
		for _, m := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		os.Exit(1)
	}
}

// lintDir parses one package directory (tests excluded) and returns the
// positions of undocumented exported symbols.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, what))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		pkgDocumented := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				pkgDocumented = true
			}
		}
		if !pkgDocumented {
			missing = append(missing, fmt.Sprintf("%s: package %s has no package comment", filepath.ToSlash(dir), pkg.Name))
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				lintDecl(decl, report)
			}
		}
	}
	return missing, nil
}

// lintDecl checks one top-level declaration.
func lintDecl(decl ast.Decl, report func(token.Pos, string)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedReceiver(d) {
			return
		}
		if d.Doc == nil {
			report(d.Pos(), "func "+funcName(d))
		}
	case *ast.GenDecl:
		// A doc comment on the grouped declaration covers its specs (the
		// idiomatic form for const/var blocks); otherwise each exported
		// spec needs its own.
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
					report(s.Pos(), "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						report(s.Pos(), d.Tok.String()+" "+name.Name)
						break
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is exported
// (plain functions count as exported receivers).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// funcName renders Recv.Name for methods, Name for functions.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	var recv string
	t := d.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	return recv + "." + d.Name.Name
}
