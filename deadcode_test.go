package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedAllowed lists the exported objects that may stay although no
// non-test file outside bench/ uses them. Keys are the module-relative
// package path, a dot and the object's name; methods and struct fields
// carry their type's name too ("internal/eval.EngineStats.CacheHits").
// Each entry's value is its category, one of the constants below, and
// its comment gives the reason. TestNoUnreachableExports fails on an entry
// that is used or no longer exists, so the list cannot outlive its
// reasons.
var unusedAllowed = map[string]string{
	// Read by bench/cmd/reprobench; goes with ROADMAP item 1.
	"internal/core.Explorer.ModelStats":     reprobench,
	"internal/core.Explorer.SimStats":       reprobench,
	"internal/core.Explorer.TrainingData":   reprobench,
	"internal/eval.EngineStats.CacheHits":   reprobench,
	"internal/eval.EngineStats.CacheMisses": reprobench,
	"internal/obs.ReadManifest":             reprobench,
	// Read by bench/cmd/reprobench: its serve workload builds neighbour
	// indices with it. The space tests check PointAt against it.
	"internal/arch.Space.FlatIndex": reprobench,

	// Reference oracle: TestQuickUpdateConsistentWithPredict checks
	// Update's misprediction against the pre-update prediction.
	"internal/branch.Predictor.Predict": oracle,
	// Reference oracle: paretostudy's TestFrontierPointsUndominatedWithinBins
	// checks the production frontier with it.
	"internal/pareto.IsDominated": oracle,
	// Reference oracle inputs: TestSweepRangeMatchesPredictLevels checks
	// the sweep kernel against PredictLevels on models of these shapes,
	// the checkpoint tests change spec with them, and the Ablation
	// benchmarks (DESIGN.md §4) fit them.
	"internal/core.LinearSpec":        oracle,
	"internal/core.NoInteractionSpec": oracle,
	"internal/core.UntransformedSpec": oracle,

	// Test or lifecycle hooks: standalone component constructors, which
	// the simulator replaces with Configure on pooled components;
	"internal/branch.New": hook,
	"internal/cache.New":  hook,
	// releasing an engine's workers, which dse and dsed leave to exit;
	"internal/eval.Engine.Close": hook,
	// disarming a fault plan;
	"internal/fault.Disable": hook,
	// the daemon's mux, which tests drive through httptest;
	"internal/serve.Server.Handler": hook,
	// the root benchmarks run the seed simulator as an Evaluator;
	"internal/eval.Func": hook,
	// the hit and miss counters the simulator keeps, which only tests
	// read.
	"internal/cache.Cache.Stats":      hook,
	"internal/branch.Predictor.Stats": hook,
}

// The categories of unusedAllowed.
const (
	// Read by bench/cmd/reprobench, a module of its own that the root's
	// tests do not scan.
	reprobench = "read by bench/cmd/reprobench"
	// A reference oracle that a remaining test compares a production
	// path against.
	oracle = "reference oracle"
	// A test or lifecycle hook: a standalone component constructor, a
	// test's way in, or a shutdown call.
	hook = "test or lifecycle hook"
	// A package that only tests and CI drive.
	harness = "test harness"
)

// unusedAllowedPackages lists the packages whose exports are exempt as
// a whole.
var unusedAllowedPackages = map[string]string{
	// Test harness: the soaks and their fault plans are driven only by
	// tests and CI's chaos-smoke job.
	"internal/chaos": harness,
}

// TestNoUnreachableExports type-checks every non-test package of the
// module outside bench/ and fails for each exported package-level
// object, method and struct field that no non-test file uses apart from
// its own declaration. Uses are resolved through go/types, not by name,
// so a method does not hide a type of the same name. A method also
// counts as used when its receiver implements an interface method of
// that name which is itself used, or which a standard-library
// interface declares (the library calls it: error, fmt.Stringer,
// json.Marshaler and the like), or the unnamed interfaces through which
// errors.Is and errors.As reach Unwrap, Is and As.
func TestNoUnreachableExports(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	unused := prog.unusedExports()
	got := map[string]bool{}
	for _, key := range unused {
		got[key] = true
		if _, ok := unusedAllowed[key]; ok || unusedAllowedPackages[key[:strings.Index(key, ".")]] != "" {
			continue
		}
		t.Errorf("%s is exported but no non-test file outside bench/ uses it: delete it, or allow-list it with its reason", key)
	}
	for key := range unusedAllowed {
		if !got[key] {
			t.Errorf("allow-list entry %s is used or no longer exists: remove the entry", key)
		}
	}
}

// program is the module's non-test packages outside bench/, type-checked
// together so that objects are shared across packages.
type program struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*loadedPackage // by import path
	order []*loadedPackage
}

type loadedPackage struct {
	rel   string // module-relative directory, "" for the root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

const modulePath = "repro"

// loadProgram parses and type-checks every directory under root that
// holds non-test Go files for the default build context, skipping
// bench/ (a module of its own), testdata and hidden directories.
func loadProgram(root string) (*program, error) {
	fset := token.NewFileSet()
	p := &program{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*loadedPackage{},
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			rel = ""
		}
		if _, err := p.load(importPath(rel), root); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func importPath(rel string) string {
	if rel == "" {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}

// load type-checks the package at path once, loading the module
// packages it imports first. It returns nil for a directory with no
// non-test Go files.
func (p *program) load(path, root string) (*loadedPackage, error) {
	if lp, ok := p.pkgs[path]; ok {
		if lp.pkg == nil {
			return nil, nil
		}
		return lp, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	dir := filepath.Join(root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	lp := &loadedPackage{rel: rel}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Build constraints decide which files a build compiles:
		// obs/rss_linux.go and obs/rss_other.go declare the same names.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	p.pkgs[path] = lp
	if len(lp.files) == 0 {
		return nil, nil
	}
	lp.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if imp == modulePath || strings.HasPrefix(imp, modulePath+"/") {
			dep, err := p.load(imp, root)
			if err != nil {
				return nil, err
			}
			if dep == nil {
				return nil, fmt.Errorf("%s: no non-test Go files", imp)
			}
			return dep.pkg, nil
		}
		return p.std.Import(imp)
	})}
	lp.pkg, err = conf.Check(path, p.fset, lp.files, lp.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p.order = append(p.order, lp)
	return lp, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// span is a declaration's source extent; a use inside it (recursion, a
// field of the struct being declared) does not make it used.
type span struct{ pos, end token.Pos }

// unusedExports returns the keys of the exported objects no non-test
// file uses outside their own declaration, sorted.
func (p *program) unusedExports() []string {
	decls := map[types.Object]span{}
	keys := map[types.Object]string{}
	var receivers []span // receiver lists: naming a method's type there is not a use
	var methods []*types.Func

	for _, lp := range p.order {
		for _, f := range lp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := lp.info.Defs[d.Name].(*types.Func)
					decls[obj] = span{d.Pos(), d.End()}
					if d.Recv != nil {
						receivers = append(receivers, span{d.Recv.Pos(), d.Recv.End()})
						methods = append(methods, obj)
						if recv := namedOf(obj.Type().(*types.Signature).Recv().Type()); recv != nil && obj.Exported() {
							keys[obj] = lp.rel + "." + recv.Obj().Name() + "." + obj.Name()
						}
					} else if obj.Exported() && obj.Name() != "main" {
						keys[obj] = lp.rel + "." + obj.Name()
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := lp.info.Defs[s.Name]
							decls[obj] = span{s.Pos(), s.End()}
							if obj.Exported() {
								keys[obj] = lp.rel + "." + obj.Name()
							}
							if st, ok := obj.Type().Underlying().(*types.Struct); ok {
								for i := 0; i < st.NumFields(); i++ {
									if fld := st.Field(i); fld.Exported() {
										keys[fld] = lp.rel + "." + obj.Name() + "." + fld.Name()
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if obj := lp.info.Defs[n]; obj != nil && obj.Exported() {
									decls[obj] = span{s.Pos(), s.End()}
									keys[obj] = lp.rel + "." + obj.Name()
								}
							}
						}
					}
				}
			}
		}
	}

	inside := func(pos token.Pos, spans ...span) bool {
		for _, s := range spans {
			if s.pos <= pos && pos < s.end {
				return true
			}
		}
		return false
	}
	used := map[types.Object]bool{}
	for _, lp := range p.order {
		for id, obj := range lp.info.Uses {
			obj = origin(obj)
			if d, ok := decls[obj]; ok && inside(id.Pos(), d) {
				continue
			}
			if _, ok := obj.(*types.TypeName); ok && inside(id.Pos(), receivers...) {
				continue
			}
			used[obj] = true
		}
		// An unkeyed struct literal sets every field without naming one.
		for _, f := range lp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := lp.info.Types[lit].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						used[st.Field(i)] = true
					}
				}
				return true
			})
		}
	}

	// Interface methods through which a concrete method may be called.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var walkStd func(pkg *types.Package)
	walkStd = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if _, ok := p.pkgs[pkg.Path()]; !ok {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walkStd(imp)
		}
	}
	for _, lp := range p.order {
		walkStd(lp.pkg)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	ifaces = append(ifaces, errorsInterfaces()...)
	for obj := range used {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, m := range methods {
		if used[m] || !m.Exported() {
			continue
		}
		recv := namedOf(m.Type().(*types.Signature).Recv().Type())
		if recv == nil || recv.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(recv)
		for _, it := range ifaces {
			if hasMethod(it, m.Name(), used) && types.Implements(ptr, it) {
				used[m] = true
				break
			}
		}
	}

	var out []string
	for obj, key := range keys {
		if !used[obj] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// errorsInterfaces returns the unnamed interfaces through which
// errors.Is, errors.As and errors.Unwrap call an error's methods.
func errorsInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	any := types.Universe.Lookup("any").Type()
	method := func(name string, param, result types.Type) *types.Interface {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewParam(token.NoPos, nil, "", param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params,
			types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	return []*types.Interface{
		method("Unwrap", nil, errType),
		method("Unwrap", nil, types.NewSlice(errType)),
		method("Is", errType, types.Typ[types.Bool]),
		method("As", any, types.Typ[types.Bool]),
	}
}

// hasMethod reports whether interface it declares a method named name.
// A method of a module interface counts only when that method is used;
// a standard-library interface's methods are called by the library.
func hasMethod(it *types.Interface, name string, used map[types.Object]bool) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if m.Name() != name {
			continue
		}
		if m.Pkg() == nil || !strings.HasPrefix(m.Pkg().Path(), modulePath+"/") {
			return true
		}
		return used[m]
	}
	return false
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
