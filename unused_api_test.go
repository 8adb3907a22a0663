package pmcast_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unusedAllowed names the exported identifiers under internal/ that no
// non-test file references but that stay, each with the reason. A key is
// the package path below internal/, then the name: "tree.View.Line".
var unusedAllowed = map[string]string{
	"core.Process.ProfileFor":     "BenchmarkRateCached (bench_matching_test.go) holds the cached rate query to 0 allocations through it; CI's bench-asserts job runs it",
	"core.Process.SeenOccupancy":  "node's TestForgedFutureSeqKeepsOriginDelivering bounds a live node's seen window through it",
	"experiments.FrontierPointAt": "BenchmarkFrontierPoint and BenchmarkFrontierPointBursty (bench_fec_test.go) run one frontier point per arm through it",
	"tree.View.MatchingRate":      "the interpretive per-line GETRATE walk BenchmarkRateCached (bench_matching_test.go) compares the cache against",
}

// TestNoUnusedInternalAPI fails on an exported identifier under internal/
// that nothing outside _test.go files references — in this module, in
// bench/ (its own module, importing pmcast/internal/...), under any build
// configuration CI vets — unless unusedAllowed names it. An entry that
// no longer exists, or that something now references, fails too.
func TestNoUnusedInternalAPI(t *testing.T) {
	res, err := scanInternalAPI(".", "pmcast")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems(unusedAllowed) {
		t.Error(p)
	}
}

// TestUnusedAPICheckerOnFixture runs the scan over a small module with
// planted names, so a scan that stops seeing them fails here.
func TestUnusedAPICheckerOnFixture(t *testing.T) {
	res, err := scanInternalAPI(filepath.Join("testdata", "unusedapi"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	// Unused and Config.Unset are planted; so are Shape (only asserted and
	// aliased) with Shape.Area and Square.Area, and Sizer.Reset (never
	// called) with Box.Reset. Not flagged: ErrBad.Error (error), ByName's
	// methods (sort.Interface), Thing.Extra (the root package aliases
	// Thing), Box.Size (called through Sizer), Namer.Name (called on
	// Person, which implements Namer), OnLinux and OnDarwin (each
	// referenced only under one platform's build tag).
	want := []string{
		"lib.Box.Reset", "lib.Config.Unset", "lib.Shape", "lib.Shape.Area",
		"lib.Sizer.Reset", "lib.Square.Area", "lib.Unused",
	}
	if !slices.Equal(res.unused, want) {
		t.Errorf("unused = %q, want %q", res.unused, want)
	}
	got := res.problems(map[string]string{
		"lib.Unused":      "planted",
		"lib.Shape":       "planted",
		"lib.Shape.Area":  "planted",
		"lib.Square.Area": "planted",
		"lib.Sizer.Reset": "planted",
		"lib.Box.Reset":   "planted",
		"lib.Config.Used": "stale: referenced",
		"lib.Gone":        "stale: not declared",
	})
	want = []string{
		"allow-list entry lib.Config.Unset missing: nothing outside tests references it",
		"allow-list entry lib.Config.Used is referenced now: delete the entry",
		"allow-list entry lib.Gone names nothing declared: delete the entry",
	}
	if !slices.Equal(got, want) {
		t.Errorf("problems =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// apiScan is what scanInternalAPI found: every exported identifier under
// internal/, and those of them nothing outside tests references.
type apiScan struct {
	declared map[string]bool
	unused   []string // sorted
}

// problems lists, sorted, each unused name the allow-list lacks and each
// allow-list entry that is stale.
func (s apiScan) problems(allow map[string]string) []string {
	var out []string
	for _, k := range s.unused {
		if _, ok := allow[k]; !ok {
			out = append(out, fmt.Sprintf("allow-list entry %s missing: nothing outside tests references it", k))
		}
	}
	for k, why := range allow {
		switch {
		case !s.declared[k]:
			out = append(out, fmt.Sprintf("allow-list entry %s names nothing declared: delete the entry", k))
		case !slices.Contains(s.unused, k):
			out = append(out, fmt.Sprintf("allow-list entry %s is referenced now: delete the entry", k))
		case strings.TrimSpace(why) == "":
			out = append(out, fmt.Sprintf("allow-list entry %s gives no reason", k))
		}
	}
	sort.Strings(out)
	return out
}

// apiPlatforms are the build configurations CI vets. Their files differ
// (batch_linux*.go against batch_fallback.go), so a name counts as used
// when any of them references it.
var apiPlatforms = []struct{ goos, goarch string }{
	{"linux", "amd64"}, {"linux", "arm64"}, {"darwin", "amd64"}, {"linux", "386"},
}

// scanInternalAPI type-checks, once per platform, every non-test package
// in the tree at root (module path mod; a nested module such as bench/
// is reached by its directory) and reports the exported funcs, methods,
// types, package vars and consts, struct fields and interface methods
// declared under internal/ that no non-test file references.
//
// Interfaces are used only by what consumes them: a `var _ I = x`
// assertion and a root-package alias of I are not uses of I. A method of
// one of the tree's interfaces is used when non-test code calls it, through
// the interface or on a type that implements the interface. A concrete
// method also counts as used when its type implements an interface that
// has it and that method is called (the tree's interfaces), or implements
// any interface of the standard library or error, or when the root package
// re-exports its type by an alias: those method sets are API.
func scanInternalAPI(root, mod string) (apiScan, error) {
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{} // import path → parsed non-test files
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		ip := path.Join(mod, filepath.ToSlash(rel))
		dirs[ip] = append(dirs[ip], f)
		return nil
	})
	if err != nil {
		return apiScan{}, err
	}
	declared, used := map[string]bool{}, map[string]bool{}
	std := importer.Default()
	for _, pl := range apiPlatforms {
		ctx := build.Default
		ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = pl.goos, pl.goarch, false
		c := &apiChecker{
			mod: mod, fset: fset, std: std, dirs: dirs,
			sizes:  types.SizesFor("gc", pl.goarch),
			strict: pl.goos == runtime.GOOS && pl.goarch == runtime.GOARCH,
			pkgs:   map[string]*types.Package{}, infos: map[string]*types.Info{},
			files: map[string][]*ast.File{},
			key:   map[types.Object]string{}, used: used,
			match: func(f *ast.File) bool {
				ok, err := ctx.MatchFile(filepath.Split(fset.File(f.Pos()).Name()))
				return err == nil && ok
			},
		}
		for ip := range dirs {
			if _, err := c.Import(ip); err != nil {
				return apiScan{}, fmt.Errorf("%s/%s: %w", pl.goos, pl.goarch, err)
			}
		}
		c.collect(declared)
	}
	s := apiScan{declared: declared}
	for k := range declared {
		if !used[k] {
			s.unused = append(s.unused, k)
		}
	}
	sort.Strings(s.unused)
	return s, nil
}

// apiChecker type-checks the tree's packages from source, in dependency
// order, for one platform; the standard library comes from std.
type apiChecker struct {
	mod   string
	fset  *token.FileSet
	std   types.Importer
	sizes types.Sizes
	// strict fails on any type error. The standard library's export data
	// is the host's, so another platform may see its constants (math.MaxInt
	// on 386) disagree; those errors are tolerated, not the references lost.
	strict bool
	dirs   map[string][]*ast.File
	match  func(f *ast.File) bool
	pkgs   map[string]*types.Package
	infos  map[string]*types.Info
	files  map[string][]*ast.File  // the files checked, by import path
	key    map[types.Object]string // declared internal/ object → its name
	used   map[string]bool
}

func (c *apiChecker) Import(ip string) (*types.Package, error) {
	if p, ok := c.pkgs[ip]; ok {
		return p, nil
	}
	if _, ok := c.dirs[ip]; !ok {
		return c.std.Import(ip)
	}
	var files []*ast.File
	for _, f := range c.dirs[ip] {
		if c.match(f) {
			files = append(files, f)
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{Importer: c, Sizes: c.sizes, Error: func(err error) { errs = append(errs, err) }}
	p, _ := conf.Check(ip, c.fset, files, info)
	if len(errs) > 0 && c.strict {
		return nil, errs[0]
	}
	c.pkgs[ip], c.infos[ip], c.files[ip] = p, info, files
	return p, nil
}

// collect names every exported declaration under internal/ into declared
// and every one some non-test file uses into c.used.
func (c *apiChecker) collect(declared map[string]bool) {
	internal := c.mod + "/internal/"
	var named []*types.Named // internal/ named non-interface types
	for ip, p := range c.pkgs {
		if !strings.HasPrefix(ip, internal) {
			continue
		}
		prefix := strings.TrimPrefix(ip, internal) + "."
		sc := p.Scope()
		for _, name := range sc.Names() {
			obj := sc.Lookup(name)
			if !obj.Exported() {
				continue
			}
			c.key[obj] = prefix + name
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			if it, ok := n.Underlying().(*types.Interface); ok {
				for m := range it.ExplicitMethods() {
					if m.Exported() {
						c.key[m] = prefix + name + "." + m.Name()
					}
				}
				continue
			}
			named = append(named, n)
			for m := range n.Methods() {
				if m.Exported() {
					c.key[m] = prefix + name + "." + m.Name()
				}
			}
			if st, ok := n.Underlying().(*types.Struct); ok {
				for f := range st.Fields() {
					if f.Exported() {
						c.key[f] = prefix + name + "." + f.Name()
					}
				}
			}
		}
	}
	for _, k := range c.key {
		declared[k] = true
	}
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if k, ok := c.key[obj]; ok {
			c.used[k] = true
		}
	}
	markAll := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return
		}
		for m := range n.Origin().Methods() {
			mark(m)
		}
		if st, ok := n.Origin().Underlying().(*types.Struct); ok {
			for f := range st.Fields() {
				mark(f)
			}
		}
	}

	ifaces := map[string][]*types.Interface{} // method name → interfaces with it
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for m := range it.Methods() {
			ifaces[m.Name()] = append(ifaces[m.Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenStd := map[*types.Package]bool{}
	var walkStd func(p *types.Package)
	walkStd = func(p *types.Package) {
		if seenStd[p] {
			return
		}
		seenStd[p] = true
		if _, ours := c.pkgs[p.Path()]; !ours {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			walkStd(q)
		}
	}

	assertion := map[*ast.Ident]bool{}
	for ip, files := range c.files {
		for _, f := range files {
			addAssertionIdents(assertion, f, ip == c.mod)
		}
	}

	called := map[*types.Func]bool{}      // methods non-test code calls
	calledOn := map[string][]types.Type{} // method name → concrete receivers it is called on
	for ip, info := range c.infos {
		walkStd(c.pkgs[ip])
		for id, obj := range info.Uses {
			if _, ok := obj.(*types.TypeName); ok && assertion[id] && types.IsInterface(obj.Type()) {
				continue
			}
			mark(obj)
			fn, ok := obj.(*types.Func)
			if !ok || fn.Signature().Recv() == nil || called[fn.Origin()] {
				continue
			}
			called[fn.Origin()] = true
			if recv := fn.Signature().Recv().Type(); !types.IsInterface(recv) {
				calledOn[fn.Name()] = append(calledOn[fn.Name()], recv)
			}
		}
		// A promoted selector x.F also uses each embedded field it passes.
		for _, sel := range info.Selections {
			t := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				f := st.Field(i)
				mark(f)
				t = f.Type()
			}
		}
		for e, tv := range info.Types {
			addIface(tv.Type)
			// An unkeyed struct literal sets every field.
			if lit, ok := e.(*ast.CompositeLit); ok && len(lit.Elts) > 0 {
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
					if st, ok := tv.Type.Underlying().(*types.Struct); ok {
						for f := range st.Fields() {
							mark(f)
						}
					}
				}
			}
		}
		if ip == c.mod {
			sc := c.pkgs[ip].Scope()
			for _, name := range sc.Names() {
				if tn, ok := sc.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
					markAll(tn.Type())
				}
			}
		}
	}

	implements := func(t types.Type, it *types.Interface) bool {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}
	method := func(it *types.Interface, name string) *types.Func {
		for m := range it.Methods() {
			if m.Name() == name {
				return m
			}
		}
		return nil
	}
	// calledThrough reports whether method name of interface it is called:
	// through an interface that has it, or on a type that implements it.
	calledThrough := func(it *types.Interface, name string) bool {
		return called[method(it, name)] ||
			slices.ContainsFunc(calledOn[name], func(t types.Type) bool { return implements(t, it) })
	}
	for obj, k := range c.key {
		fn, ok := obj.(*types.Func)
		if !ok || c.used[k] || fn.Signature().Recv() == nil {
			continue
		}
		if it, ok := fn.Signature().Recv().Type().Underlying().(*types.Interface); ok && calledThrough(it, fn.Name()) {
			c.used[k] = true
		}
	}
	fromTree := func(fn *types.Func) bool {
		if fn.Pkg() == nil {
			return false // error's Error
		}
		_, ok := c.dirs[fn.Pkg().Path()]
		return ok
	}
	for _, n := range named {
		if n.TypeParams().Len() > 0 {
			continue
		}
		for m := range n.Methods() {
			if k, ok := c.key[m]; !ok || c.used[k] {
				continue
			}
			for _, it := range ifaces[m.Name()] {
				if !implements(n, it) {
					continue
				}
				if !fromTree(method(it, m.Name())) || calledThrough(it, m.Name()) {
					c.used[c.key[m]] = true
					break
				}
			}
		}
	}
}

// addAssertionIdents adds to into the identifiers in the type of each
// top-level `var _ I = x` declaration of f and, when f is in the root
// package, in the target of each alias: neither consumes an interface it
// names.
func addAssertionIdents(into map[*ast.Ident]bool, f *ast.File, root bool) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, sp := range gd.Specs {
			var typ ast.Expr
			switch sp := sp.(type) {
			case *ast.ValueSpec:
				if !slices.ContainsFunc(sp.Names, func(id *ast.Ident) bool { return id.Name != "_" }) {
					typ = sp.Type
				}
			case *ast.TypeSpec:
				if root && sp.Assign.IsValid() {
					typ = sp.Type
				}
			}
			if typ == nil {
				continue
			}
			ast.Inspect(typ, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					into[id] = true
				}
				return true
			})
		}
	}
}
