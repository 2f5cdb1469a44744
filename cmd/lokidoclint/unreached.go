package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// The gate's three lists, in the order an identifier is tried against them.
var kinds = []string{"unreached", "never-set", "package-local"}

type finding struct{ kind, name string }

// pkgSrc is one package directory, split the way `go test` splits it.
type pkgSrc struct {
	path                 string
	files, tests, xtests []*ast.File
	pkg                  *types.Package
	info                 *types.Info
}

// use is what the loaded code does with one declared object.
type use struct{ nonTest, other, set bool }

// loader type-checks every package under a root from source. It is the
// types.Importer of those checks: the standard library comes from its
// source importer, and while an external test is checked, its package's
// test build stands in for the package.
type loader struct {
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*pkgSrc
	order     []*pkgSrc
	testBuild map[string]*types.Package
	uses      map[token.Pos]*use // keyed by declaration position
	ifaces    []*types.Interface
}

// unreachedGate lists the findings under root, checks them against the
// allowlist at allowPath, writes the lists and counts to w, and reports
// whether every finding is allowlisted and every allowlist entry found.
func unreachedGate(root, allowPath string, w io.Writer) (bool, error) {
	allow, err := readAllowlist(allowPath)
	if err != nil {
		return false, err
	}
	findings, exported, lines, err := findUnreached(root)
	if err != nil {
		return false, err
	}
	return checkAllowlist(findings, exported, lines, allow, allowPath, w), nil
}

// checkAllowlist writes the findings list by list and the counts to w,
// marking every finding allow lacks and every entry of allow (read from
// allowPath) that no finding matches, and reports whether it marked none.
// It deletes the matched entries from allow.
func checkAllowlist(findings []finding, exported, lines int, allow map[finding]bool, allowPath string, w io.Writer) bool {
	ok := true
	for _, kind := range kinds {
		fmt.Fprintf(w, "%s:\n", kind)
		for _, f := range findings {
			if f.kind != kind {
				continue
			}
			mark := "  "
			if !allow[f] {
				mark, ok = "! ", false
			}
			delete(allow, f)
			fmt.Fprintf(w, "%s%s\n", mark, f.name)
		}
	}
	var stale []string
	for f := range allow {
		stale = append(stale, f.kind+" "+f.name)
	}
	sort.Strings(stale)
	for _, s := range stale {
		fmt.Fprintf(w, "stale allowlist entry: %s\n", s)
		ok = false
	}
	fmt.Fprintf(w, "exported identifiers in internal/: %d\nnon-test Go lines in the root module: %d\n", exported, lines)
	if !ok {
		fmt.Fprintf(w, "delete or unexport what is marked !, or add it to %s with a reason; remove stale entries\n", allowPath)
	}
	return ok
}

// readAllowlist parses "kind name reason..." lines, skipping blank lines
// and # comments.
func readAllowlist(file string) (map[finding]bool, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	allow := map[finding]bool{}
	for n, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 3 || !slices.Contains(kinds, fields[0]) {
			return nil, fmt.Errorf("%s:%d: want \"kind name reason\" with kind one of %v", file, n+1, kinds)
		}
		allow[finding{fields[0], fields[1]}] = true
	}
	return allow, nil
}

// findUnreached loads every module under root and returns the findings for
// the root module's internal/ packages, how many exported identifiers those
// declare, and the root module's non-test Go lines.
func findUnreached(root string) (findings []finding, exported, lines int, err error) {
	// Without cgo the standard library type-checks from its Go sources.
	build.Default.CgoEnabled = false
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*pkgSrc{}, uses: map[token.Pos]*use{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	rootMod, lines, err := l.parse(root)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, p := range l.order {
		if _, err := l.Import(p.path); err != nil {
			return nil, 0, 0, err
		}
	}
	for _, p := range l.order {
		l.scan(p.files, p.info, p.path, false)
		l.checkTests(p)
	}
	l.collectInterfaces()
	for _, p := range l.order {
		if rel := strings.TrimPrefix(p.path, rootMod+"/"); rel == "internal" || strings.HasPrefix(rel, "internal/") {
			findings = append(findings, l.judge(p, rel, &exported)...)
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].name < findings[j].name })
	return findings, exported, lines, nil
}

// parse parses every package directory under root, naming each after the
// nearest go.mod above it, and returns the root module's path and its
// non-test line count.
func (l *loader) parse(root string) (string, int, error) {
	mods := map[string]string{} // directory -> module path
	lines := 0
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					mods[dir] = strings.Trim(strings.TrimSpace(mod), `"`)
				}
			}
		}
		modDir := dir
		for mods[modDir] == "" && modDir != root {
			modDir = filepath.Dir(modDir)
		}
		if mods[modDir] == "" {
			return fmt.Errorf("%s: no go.mod", root)
		}
		rel, _ := filepath.Rel(modDir, dir)
		p := &pkgSrc{path: path.Join(mods[modDir], filepath.ToSlash(rel))}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") {
				continue
			}
			if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				p.files = append(p.files, f)
				if modDir == root {
					lines += l.fset.File(f.Pos()).LineCount()
				}
			case strings.HasSuffix(f.Name.Name, "_test"):
				p.xtests = append(p.xtests, f)
			default:
				p.tests = append(p.tests, f)
			}
		}
		if len(p.files) > 0 {
			l.pkgs[p.path] = p
			l.order = append(l.order, p)
		}
		return nil
	})
	sort.Slice(l.order, func(i, j int) bool { return l.order[i].path < l.order[j].path })
	return mods[root], lines, err
}

// Import type-checks a loaded package's non-test files once, or imports
// from the standard library.
func (l *loader) Import(importPath string) (*types.Package, error) {
	if pkg := l.testBuild[importPath]; pkg != nil {
		return pkg, nil
	}
	p := l.pkgs[importPath]
	if p == nil {
		return l.std.Import(importPath)
	}
	if p.pkg == nil {
		p.info = newInfo()
		pkg, err := (&types.Config{Importer: l}).Check(importPath, l.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

// checkTests type-checks a package's in-package tests with the package and
// its external tests against that test build, and records what they name.
// A test build declares the package's objects again at the same positions,
// so its references land on the same records. Type errors are ignored: an
// external test can see both builds of a package.
func (l *loader) checkTests(p *pkgSrc) {
	conf := types.Config{Importer: l, Error: func(error) {}}
	if len(p.tests) > 0 {
		info := newInfo()
		pkg, _ := conf.Check(p.path, l.fset, append(append([]*ast.File{}, p.files...), p.tests...), info)
		l.scan(p.tests, info, p.path, true)
		l.testBuild = map[string]*types.Package{p.path: pkg}
	}
	if len(p.xtests) > 0 {
		info := newInfo()
		conf.Check(p.path+"_test", l.fset, p.xtests, info)
		l.scan(p.xtests, info, p.path, true)
	}
	l.testBuild = nil
}

// record returns the record of an object declared in a loaded package, or
// a throwaway one.
func (l *loader) record(obj types.Object) *use {
	if obj == nil || obj.Pkg() == nil || l.pkgs[obj.Pkg().Path()] == nil {
		return &use{}
	}
	u := l.uses[obj.Pos()]
	if u == nil {
		u = &use{}
		l.uses[obj.Pos()] = u
	}
	return u
}

// scan records every object files name from the package at path from and,
// for non-test files, every struct field they write.
func (l *loader) scan(files []*ast.File, info *types.Info, from string, test bool) {
	name := func(obj types.Object) {
		u := l.record(obj)
		u.nonTest = u.nonTest || !test
		u.other = u.other || obj != nil && obj.Pkg() != nil && obj.Pkg().Path() != from
	}
	set := func(obj types.Object) {
		u := l.record(obj)
		u.set = u.set || !test
	}
	// write marks the fields along an assigned or addressed expression.
	write := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				set(info.Uses[x.Sel])
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				name(info.Uses[n])
			case *ast.CompositeLit:
				var st *types.Struct
				if t := info.TypeOf(n); t != nil {
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					st, _ = t.Underlying().(*types.Struct)
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok && st != nil {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set(info.Uses[id])
						}
					} else if st != nil && i < st.NumFields() {
						name(st.Field(i))
						set(st.Field(i))
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			}
			return true
		})
	}
}

// collectInterfaces gathers the method-set interfaces the loaded code uses,
// named or not, and the named ones of every package it imports.
func (l *loader) collectInterfaces() {
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if n, named := t.(*types.Named); !ok || seen[it] || !it.IsMethodSet() || it.NumMethods() == 0 || named && n.TypeParams().Len() > 0 {
			return
		}
		seen[it] = true
		l.ifaces = append(l.ifaces, it)
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.order {
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		walk(p.pkg)
	}
	add(types.Universe.Lookup("error").Type())
}

// implements reports whether t or *t implements one of ifaces that has a
// method named m.
func implements(t types.Type, m string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m); obj == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// judge counts the exported identifiers of one internal package (its
// package-level names, the methods of its named types, interface methods
// included, and the fields of its named struct types) and lists those that
// nothing needs exported.
func (l *loader) judge(p *pkgSrc, rel string, exported *int) []finding {
	var out []finding
	classify := func(obj types.Object, name string, field bool) {
		*exported++
		switch u := l.record(obj); {
		case !u.nonTest:
			out = append(out, finding{"unreached", name})
		case field && !u.set:
			out = append(out, finding{"never-set", name})
		case !u.other:
			out = append(out, finding{"package-local", name})
		}
	}
	scope := p.pkg.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		if obj.Exported() {
			classify(obj, rel+"."+n, false)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, prefix := tn.Type().(*types.Named), rel+"."+n+"."
		st, _ := named.Underlying().(*types.Struct)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() && implements(named, m.Name(), l.ifaces) {
				*exported++ // reached through the interface
			} else if m.Exported() {
				classify(m, prefix+m.Name(), false)
			}
		}
		for i := 0; st != nil && i < st.NumFields(); i++ {
			// An embedded field's name is its type's, judged where the
			// type is declared.
			if f := st.Field(i); f.Exported() && f.Embedded() {
				*exported++
			} else if f.Exported() {
				classify(f, prefix+f.Name(), true)
			}
		}
		if it, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumExplicitMethods(); i++ {
				if m := it.ExplicitMethod(i); m.Exported() {
					classify(m, prefix+m.Name(), false)
				}
			}
		}
	}
	return out
}
