// Package reach holds TestLibraryReach, the guard that keeps every library
// function within reach of library code. It has no non-test files.
//
// The probe parses every non-test file of the module and type-checks the
// packages in import order with go/types. A name counts as reached when some
// non-test file uses it outside its own declaration (a recursive call does
// not count), or, for a method, when its receiver satisfies an interface that
// declares it. In scope are every exported name of an internal/ package and
// every unexported function and method in the module. The public packages'
// exported API is the module's purpose, and staticcheck's U1000 counts a use
// from a test as a use, so neither catches library code only tests call.
//
// Some of that code stays on purpose; allowlist names it, each with the kind
// of use and one test that uses it.
package reach

import (
	"errors"
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

const modulePath = "cyclesteal"

// Kinds of code that stays though no library code reaches it.
const (
	// oracle: a reference implementation a test compares library output
	// with, or an invariant check a test runs on library output.
	oracle = "oracle"
	// observer: a small reader of state the library keeps anyway.
	observer = "observer"
	// helper: code that exists for tests to build inputs or compare
	// outputs.
	helper = "helper"
)

// allowed is one name no library code reaches: its kind, and one test, as
// "<dir>.<TestName>", whose file uses it.
type allowed struct {
	name, kind, test string
}

// allowlist is every name in scope that no library code reaches. A new
// entry needs a kind and a test that uses it; anything else goes.
var allowlist = []allowed{
	{"internal/expect.ExpectedWork", oracle, "internal/expect.TestSolverDominatesFixedSchedules"},
	{"internal/expect.Solver.Value", observer, "internal/expect.TestSolverMonotoneInL"},
	{"internal/farm.Core.Total", observer, "internal/farm.TestCrossStealLossTimeoutRetryDegrade"},
	{"internal/game.BestResponse.States", observer, "internal/game.TestEvaluateWithStrategyRecordsChoices"},
	{"internal/game.Solver.C", observer, "internal/game.TestSolverAccessors"},
	{"internal/game.Solver.P", observer, "internal/game.TestSolverAccessors"},
	{"internal/game.Solver.U", observer, "internal/game.TestSolverAccessors"},
	{"internal/model.TickSchedule.Validate", oracle, "internal/model.TestTickScheduleBasics"},
	{"internal/quant.ApproxEqual", helper, "internal/quant.TestApproxEqual"},
	{"internal/sched.NonAdaptive.M", observer, "internal/sched.TestNonAdaptiveMMatchesGuideline"},
	{"internal/stats.Accumulator.Mean", observer, "internal/stats.TestAccumulatorMatchesSummarize"},
	{"internal/stats.Accumulator.Quantile", observer, "internal/stats.TestAccumulatorMergedQuantilesBounded"},
	{"internal/stats.Accumulator.SketchErrorBound", observer, "internal/stats.TestAccumulatorMergedQuantilesBounded"},
	{"internal/stats.NewSketch", helper, "internal/stats.TestSketchRankErrorBoundMillion"},
	{"internal/stats.Sketch.Compact", helper, "internal/stats.TestSketchMergePreservesBoundAndWeight"},
	{"internal/stats.Sketch.N", observer, "internal/stats.TestSketchMergeOrderInvariant"},
	{"internal/stats.Sketch.Rank", observer, "internal/stats.TestSketchRankErrorBoundMillion"},
	{"internal/stats.Summarize", oracle, "internal/stats.TestAccumulatorMatchesSummarize"},
	{"internal/tab.Table.Render", helper, "internal/tab.TestRender"},
	{"internal/task.Bag.RemainingWork", observer, "internal/task.TestTakeReturnConservesWork"},
	{"internal/task.Deal", oracle, "internal/task.TestDealIntoMatchesDealAppend"},
	{"internal/task.Flight.Lost", observer, "internal/task.TestFlightLoseCountsDestroyedTasks"},
	{"internal/task.Flight.Parcels", observer, "internal/task.TestFlightDepartArriveOrder"},
	{"internal/task.Validate", oracle, "internal/task.TestExponentialGenerator"},
	{"internal/theory.AdaptiveSlack", oracle, "internal/game.TestValueTracksEqualizationPrediction"},
	{"internal/theory.AdaptiveWorkLowerBound", oracle, "internal/game.TestValueMeetsTheorem51BoundP1"},
	{"internal/theory.DeficitRatio", oracle, "internal/theory.TestDeficitRatio"},
	{"internal/theory.EqualizedM", oracle, "internal/sched.TestEqualizedLengthMatchesKp"},
	{"internal/theory.GuidelineRampStep", oracle, "internal/sched.TestGuidelineRampStepMatchesDelta"},
	{"internal/theory.GuidelineTailCount", oracle, "internal/sched.TestGuidelinePeriodsStructure"},
	{"internal/theory.OptimalP1Periods", oracle, "internal/theory.TestOptimalP1PeriodsSumToU"},
}

// pkgSrc is one package of the module, parsed and then type-checked.
type pkgSrc struct {
	path  string // import path
	rel   string // directory relative to the module root, "." for the root
	files []*ast.File
	deps  []string // imports inside the module
	pkg   *types.Package
	info  *types.Info
}

// candidate is a declared name in scope, with the spans of its declaration.
type candidate struct {
	key   string
	spans [][2]token.Pos
}

func TestLibraryReach(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	fset := token.NewFileSet()
	pkgs, err := loadModule(fset, root)
	if err != nil {
		t.Fatal(err)
	}
	reached := reachability(pkgs)

	listed := map[string]allowed{}
	for _, a := range allowlist {
		if _, dup := listed[a.name]; dup {
			t.Errorf("allowlist: %s listed twice", a.name)
		}
		listed[a.name] = a
		switch a.kind {
		case oracle, observer, helper:
		default:
			t.Errorf("allowlist: %s has kind %q, want oracle, observer or helper", a.name, a.kind)
		}
		if err := testUses(fset, root, a); err != nil {
			t.Errorf("allowlist: %s: %v", a.name, err)
		}
	}
	for _, name := range sortedKeys(reached) {
		if _, ok := listed[name]; !ok && !reached[name] {
			t.Errorf("%s has no caller outside tests: delete it, or list it with its kind and a test that uses it", name)
		}
	}
	for _, a := range allowlist {
		byLibrary, exists := reached[a.name]
		switch {
		case !exists:
			t.Errorf("allowlist: %s no longer exists, or is out of scope", a.name)
		case byLibrary:
			t.Errorf("allowlist: %s is reached by library code: take it off the list", a.name)
		}
	}
}

// loadModule parses every non-test file of the module under root and
// type-checks the packages in import order. The standard library comes from
// source; the module's own packages come from this pass.
func loadModule(fset *token.FileSet, root string) ([]*pkgSrc, error) {
	byPath := map[string]*pkgSrc{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		name := d.Name()
		if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if rel == "perfbench" { // its own module, which cannot import internal/
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		}
		if err != nil {
			return err
		}
		p := &pkgSrc{path: modulePath, rel: filepath.ToSlash(rel)}
		if rel != "." {
			p.path += "/" + p.rel
		}
		for _, f := range bp.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(path, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, file)
		}
		for _, imp := range bp.Imports {
			if imp == modulePath || strings.HasPrefix(imp, modulePath+"/") {
				p.deps = append(p.deps, imp)
			}
		}
		byPath[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(fset, "source", nil)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			if p.pkg == nil {
				return nil, fmt.Errorf("%s imported before it was checked", path)
			}
			return p.pkg, nil
		}
		return std.Import(path)
	})
	var order []*pkgSrc
	state := map[string]int{} // 1 visiting, 2 done
	var visit func(p *pkgSrc) error
	visit = func(p *pkgSrc) error {
		switch state[p.path] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.path)
		case 2:
			return nil
		}
		state[p.path] = 1
		for _, d := range p.deps {
			dp, ok := byPath[d]
			if !ok {
				return fmt.Errorf("%s imports %s, which has no non-test files", p.path, d)
			}
			if err := visit(dp); err != nil {
				return err
			}
		}
		state[p.path] = 2
		order = append(order, p)
		return nil
	}
	for _, path := range sortedKeys(byPath) {
		if err := visit(byPath[path]); err != nil {
			return nil, err
		}
	}
	for _, p := range order {
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		p.pkg, err = conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.path, err)
		}
	}
	return order, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reachability maps every name in scope to whether library code reaches
// it; a name maps to false when nothing but tests use it.
func reachability(pkgs []*pkgSrc) map[string]bool {
	cands := map[types.Object]*candidate{}
	typeOf := map[*types.TypeName]*candidate{}
	var methods []*types.Func
	for _, p := range pkgs {
		internal := p.rel == "internal" || strings.HasPrefix(p.rel, "internal/")
		prefix := modulePath
		if p.rel != "." {
			prefix = p.rel
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					name := fn.Name()
					recv := fn.Type().(*types.Signature).Recv()
					if name == "_" || (recv == nil && (name == "init" || (name == "main" && p.pkg.Name() == "main"))) {
						continue
					}
					if fn.Exported() && !internal {
						continue
					}
					key := prefix + "." + name
					if recv != nil {
						tn := receiverName(recv.Type())
						key = prefix + "." + tn.Name() + "." + name
						methods = append(methods, fn)
					}
					cands[fn] = &candidate{key: key, spans: [][2]token.Pos{{d.Pos(), d.End()}}}
				case *ast.GenDecl:
					if !internal || d.Tok == token.IMPORT {
						continue
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							tn := p.info.Defs[s.Name].(*types.TypeName)
							if tn.Exported() {
								c := &candidate{key: prefix + "." + tn.Name(), spans: [][2]token.Pos{{s.Pos(), s.End()}}}
								cands[tn] = c
								typeOf[tn] = c
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if obj := p.info.Defs[id]; obj != nil && obj.Exported() {
									cands[obj] = &candidate{key: prefix + "." + obj.Name(), spans: [][2]token.Pos{{s.Pos(), s.End()}}}
								}
							}
						}
					}
				}
			}
		}
	}
	// A type's methods are part of its declaration: a type only its own
	// methods mention is not reached. (Every method of an internal type is
	// a candidate.)
	for _, fn := range methods {
		if c := typeOf[receiverName(fn.Type().(*types.Signature).Recv().Type())]; c != nil {
			c.spans = append(c.spans, cands[fn].spans[0])
		}
	}

	reached := map[types.Object]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			c := cands[obj]
			if c == nil || reached[obj] {
				continue
			}
			inside := false
			for _, s := range c.spans {
				if s[0] <= id.Pos() && id.Pos() < s[1] {
					inside = true
					break
				}
			}
			if !inside {
				reached[obj] = true
			}
		}
	}

	// A method is reached when its receiver satisfies an interface that
	// declares it: the interfaces the module names or spells out, those of
	// the standard packages it imports, and error.
	ifaces := map[*types.Interface]bool{}
	addScope := func(sc *types.Scope) {
		for _, n := range sc.Names() {
			if tn, ok := sc.Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces[it] = true
				}
			}
		}
	}
	addScope(types.Universe)
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			if tv.Type == nil {
				continue
			}
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
		for _, imp := range p.pkg.Imports() {
			if !strings.HasPrefix(imp.Path(), modulePath) {
				addScope(imp.Scope())
			}
		}
	}
	for _, fn := range methods {
		if reached[fn] {
			continue
		}
		tn := receiverName(fn.Type().(*types.Signature).Recv().Type())
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		for it := range ifaces {
			if declares(it, fn.Name()) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				reached[fn] = true
				break
			}
		}
	}

	out := map[string]bool{}
	for obj, c := range cands {
		out[c.key] = reached[obj]
	}
	return out
}

// receiverName is the named type a method's receiver is declared on.
func receiverName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj()
}

func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// testUses checks that a's test is declared in a test file of its directory
// and that its body names a's identifier.
func testUses(fset *token.FileSet, root string, a allowed) error {
	dot := strings.LastIndex(a.test, ".")
	if dot < 0 {
		return fmt.Errorf("test %q is not <dir>.<TestName>", a.test)
	}
	dir, test := a.test[:dot], a.test[dot+1:]
	ident := a.name[strings.LastIndex(a.name, ".")+1:]
	matches, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(dir), "*_test.go"))
	if err != nil {
		return err
	}
	for _, path := range matches {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Name.Name != test {
				continue
			}
			used := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				used = used || (ok && id.Name == ident)
				return !used
			})
			if !used {
				return fmt.Errorf("%s does not use %s", a.test, ident)
			}
			return nil
		}
	}
	return fmt.Errorf("no test %s in %s", test, dir)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
