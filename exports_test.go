package dbtouch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under internal/
// that no non-test code calls and that stay anyway. A key is
// "internal/<pkg>.<Func>", "internal/<pkg>.<Type>.<Method>", or
// "internal/<pkg>" for a whole package that only tests import. Every
// entry gives its reason: the tests outside the declaring package that
// need it. An entry whose name is gone or has gained a non-test caller is
// stale and fails the check.
var exportAllowlist = map[string]string{
	"internal/iomodel.Tracker.WarmBlocks":    "cache TestPoliciesIntegrateWithTracker and TestTrackerMatchesMapReference, operator TestFuseFilterAggChargesLikeUnfused, prefetch TestPrefetcherDisabled and sample TestTotalStatsAndCool read warmth",
	"internal/iomodel.Tracker.Cool":          "cache TestTrackerMatchesMapReference cools the tracker as one of its random steps; sample TestTotalStatsAndCool cools every level",
	"internal/touchos.View.Rotation":         "dbtouch TestRotateQuarterOnColumn and core TestRotateColumnObjectKeepsMapping check a rotate gesture turned the view",
	"internal/gesture.Synth.Tap":             "core TestTapRevealsValue and session TestConcurrentStreamsIdenticalToSequential synthesize raw taps",
	"internal/gesture.Synth.BackAndForth":    "core promote tests (revisitRegion) and session TestDerivedTablesStaySessionPrivate synthesize raw sweeps",
	"internal/gesture.Synth.Pinch":           "core TestZoomChangesAddressableDetail and TestZoomClampsToScreen synthesize raw pinches",
	"internal/gesture.Synth.Rotate":          "core TestRotateColumnObjectKeepsMapping and TestRotateTableStartsConversion synthesize raw rotations",
	"internal/gesture.Merge":                 "core TestInterleavedGesturesOnTwoObjects interleaves two fingers' streams",
	"internal/storage.Table.Gen":             "sample TestVersionedMatchesFrozenBuildAcrossCompactions and session TestLiveRetentionKeepsStateBounded wait for compactions",
	"internal/storage.Value.Equal":           "core TestJoinGestures and layout TestConversionRun compare cells",
	"internal/metrics.Counters.Names":        "session TestLiveRetentionKeepsStateBounded and TestStaticRetentionWeekLongSweep bound the kernel's counter set",
	"internal/sample.LiveStore.PinnedEpochs": "session TestEvictedSessionReleasesPinAfterDrain checks an evicted session's pins drain",
	"internal/sample.LiveStore.Stats":        "session TestLiveRetentionKeepsStateBounded bounds the live sample chains",
	"internal/sample.Hierarchy.Shared":       "session TestSharedSamplesBuiltOnce checks two sessions read one sample hierarchy",
	"internal/core.Kernel.Config":            "dbtouch TestOptionsApply reads back the applied options",
	"internal/core.Kernel.OnPin":             "session TestLiveAppendExploreEquivalence records each batch's pinned epoch to replay it frozen",
	"internal/core.Object.Groups":            "session TestLiveRetentionKeepsStateBounded and TestStaticRetentionWeekLongSweep bound the group table",
	"internal/core.ResultStream.Closed":      "session TestEvictClosesSubscribedStreams checks eviction closes subscriptions",
	"internal/core.ResultStream.Dropped":     "dbtouch TestSubscribeAcrossGoroutines and protocol TestProtocolRoundTrip assert no result was dropped",
	"internal/sessionlog.Store.SessionBytes": "session TestDurableSoak10kSessions bounds the session log's disk use",
	"internal/session.Manager.Append":        "session TestLiveAppendExploreEquivalence and storage TestLiveDictionaryGrowthStream append boxed rows",
	"internal/session.Manager.Len":           "dbtouch TestSessionAdmissionOverloaded and TestSessionDuplicateID count live sessions",
	"internal/session.Manager.Dispatch":      "session TestConcurrentStreamsIdenticalToSequential and TestLiveAppendExploreEquivalence drive raw touch batches",
	"internal/faultnet":                      "gateway TestChaosEquivalenceNetworkFaults, TestChaosEquivalenceBackendKills and TestBreakerRecoveryViaProxy inject faults through it",
}

// fieldAllowlist names the exported fields under internal/ that no
// non-test code sets and that stay anyway, keyed
// "internal/<pkg>.<Type>.<Field>". Every entry gives its reason; an entry
// whose field is gone or has gained a non-test setter is stale and fails
// the check.
var fieldAllowlist = map[string]string{
	"internal/core.Config.Granularity":     "public as dbtouch.Config: library users may coarsen the touch-to-tuple mapping",
	"internal/core.Config.ResolutionPerCm": "public as dbtouch.Config: library users may override the digitizer's pointing resolution",
	"internal/protocol.Backoff.Rand":       "protocol's TestBackoff* tests pin the jitter draws through it",
}

// servedCommands must not link the research, demo and test-only packages
// in servedExcluded: the served binaries carry only the touch path.
var (
	servedCommands = []string{"dbtouch/cmd/dbtouch-serve", "dbtouch/cmd/dbtouch-gateway"}
	servedExcluded = []string{"baseline", "explorer", "experiments", "remote", "script", "viz", "faultnet"}
)

// TestExportsHaveCallers fails on every exported function or method
// declared under internal/ that no non-test file of module dbtouch or of
// the bench module references, unless it implements an interface method
// or is on exportAllowlist.
func TestExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	c := newExportCheck(t, "dbtouch", nil, ".", "bench")
	for _, p := range c.check(exportAllowlist) {
		t.Error(p)
	}
}

// TestFieldsHaveSetters fails on every exported field of a struct declared
// under internal/ that no non-test file of module dbtouch or of the bench
// module sets, unless it is on fieldAllowlist or in a package
// exportAllowlist names whole. A field is set where it is the left side
// of an assignment or inc/dec, where its address is taken, where it is a
// key of a keyed struct literal or the struct has an unkeyed one, and
// wherever it carries a json tag.
func TestFieldsHaveSetters(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	c := newExportCheck(t, "dbtouch", nil, ".", "bench")
	for _, p := range c.checkFields(fieldAllowlist, exportAllowlist) {
		t.Error(p)
	}
}

// TestServedClosure holds the served binaries' dependency closure clear of
// the packages only the demo, the experiments and the tests use.
func TestServedClosure(t *testing.T) {
	deps := map[string][]string{}
	for _, p := range goList(t, ".", nil) {
		deps[p.ImportPath] = p.Deps
	}
	for _, cmd := range servedCommands {
		ds, ok := deps[cmd]
		if !ok {
			t.Fatalf("%s not listed", cmd)
		}
		for _, d := range ds {
			for _, x := range servedExcluded {
				if d == "dbtouch/internal/"+x {
					t.Errorf("%s depends on %s", cmd, d)
				}
			}
		}
	}
}

// TestExportCheckerFixture runs both checks over testdata/exportcheck, a
// module with one export and one field of each kind, on two
// architectures: the function called and the field set only from an arm64
// file count as called and set on both.
func TestExportCheckerFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list twice")
	}
	allow := map[string]string{"internal/lib.Allowed": "fixture: an allowlisted export"}
	for _, arch := range []string{"amd64", "arm64"} {
		c := newExportCheck(t, "fixture", []string{"GOOS=linux", "GOARCH=" + arch}, "testdata/exportcheck")
		got := c.check(allow)
		if len(got) != 1 || !strings.Contains(got[0], "internal/lib.Unused has no non-test caller") {
			t.Errorf("GOARCH=%s: got %q, want exactly internal/lib.Unused flagged", arch, got)
		}
		got = c.checkFields(nil, nil)
		if len(got) != 1 || !strings.Contains(got[0], "internal/lib.Config.ReadOnly has no non-test setter") {
			t.Errorf("GOARCH=%s: got %q, want exactly internal/lib.Config.ReadOnly flagged", arch, got)
		}
	}

	c := newExportCheck(t, "fixture", nil, "testdata/exportcheck")
	stale := map[string]string{
		"internal/lib.Allowed": "fixture",
		"internal/lib.Gone":    "fixture: no such name",
		"internal/lib.Used":    "fixture: has a caller",
		"internal/lib.Unused":  "",
	}
	got := strings.Join(c.check(stale), "\n")
	for _, want := range []string{
		"internal/lib.Gone is stale",
		"internal/lib.Used is stale",
		"internal/lib.Unused gives no reason",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stale allowlist: missing %q in\n%s", want, got)
		}
	}
	staleFields := map[string]string{
		"internal/lib.Config.Gone":     "fixture: no such field",
		"internal/lib.Config.Assigned": "fixture: has a setter",
		"internal/lib.Config.ReadOnly": "",
	}
	got = strings.Join(c.checkFields(staleFields, nil), "\n")
	for _, want := range []string{
		"internal/lib.Config.Gone is stale",
		"internal/lib.Config.Assigned is stale",
		"internal/lib.Config.ReadOnly gives no reason",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stale field allowlist: missing %q in\n%s", want, got)
		}
	}
}

// listedPkg is the part of `go list -json` output the checker reads.
type listedPkg struct {
	ImportPath     string
	Dir            string
	Standard       bool
	Export         string
	GoFiles        []string
	IgnoredGoFiles []string
	Deps           []string
	Error          *struct{ Err string }
}

// goList lists the packages matched by ./... in dir and all their
// dependencies, dependencies first, with the export data file of each.
func goList(t *testing.T, dir string, env []string) []*listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-json", "-deps", "-export", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPkg)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// exportCheck holds every non-standard package of the listed modules,
// type-checked from source against one shared importer, so a type is one
// object in every package that names it.
type exportCheck struct {
	module  string
	root    string // the first listed directory; positions print relative to it
	fset    *token.FileSet
	checked map[string]*types.Package
	std     types.Importer

	candidates []*types.Func                  // exported funcs and methods under internal/
	used       map[*types.Func]bool           // referenced from outside their own body
	fields     []*types.Var                   // exported fields of structs declared under internal/
	owner      map[*types.Var]*types.TypeName // the struct type each field is declared in
	set        map[*types.Var]bool            // written by some non-test file
	byName     map[string]bool                // identifiers in files excluded by build tags
	ifaces     map[string][]*types.Interface  // by method name
}

func newExportCheck(t *testing.T, module string, env []string, dirs ...string) *exportCheck {
	t.Helper()
	root, err := filepath.Abs(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	c := &exportCheck{
		module:  module,
		root:    root,
		fset:    token.NewFileSet(),
		checked: map[string]*types.Package{},
		used:    map[*types.Func]bool{},
		owner:   map[*types.Var]*types.TypeName{},
		set:     map[*types.Var]bool{},
		byName:  map[string]bool{},
		ifaces:  map[string][]*types.Interface{},
	}
	exports := map[string]string{}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	c.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, dir := range dirs {
		for _, p := range goList(t, dir, env) {
			if p.Standard {
				exports[p.ImportPath] = p.Export
				continue
			}
			if _, ok := c.checked[p.ImportPath]; ok {
				continue
			}
			if p.Error != nil && len(p.GoFiles) > 0 {
				t.Fatalf("%s: %s", p.ImportPath, p.Error.Err)
			}
			c.load(t, p)
		}
	}
	seen := map[*types.Package]bool{}
	for _, pkg := range c.checked {
		c.addPackageInterfaces(pkg, seen)
	}
	return c
}

func (c *exportCheck) Import(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	return c.std.Import(path)
}

// load type-checks p's non-test files, records the exported functions and
// methods it declares under internal/ and every function each file
// references. The files its build tags exclude are read by name only:
// any identifier in one counts as a use of every export so named, so the
// verdict is the same on every GOOS/GOARCH.
func (c *exportCheck) load(t *testing.T, p *listedPkg) {
	t.Helper()
	for _, name := range p.IgnoredGoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var declared *ast.Ident // a function's own name is not a use of it
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared = n.Name
			case *ast.Ident:
				if n != declared {
					c.byName[n.Name] = true
				}
			}
			return true
		})
	}
	if len(p.GoFiles) == 0 {
		return
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(p.ImportPath, c.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", p.ImportPath, err)
	}
	c.checked[p.ImportPath] = pkg

	internal := strings.HasPrefix(p.ImportPath, c.module+"/internal/")
	for _, f := range files {
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = info.Defs[fd.Name]
				if fn := self.(*types.Func); internal && fn.Exported() {
					c.candidates = append(c.candidates, fn)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if fn, ok := info.Uses[n].(*types.Func); ok && fn.Origin() != self {
						c.used[fn.Origin()] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						c.setField(info, lhs)
					}
				case *ast.IncDecStmt:
					c.setField(info, n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						c.setField(info, n.X)
					}
				case *ast.CompositeLit:
					c.setLiteral(info, n)
				}
				return true
			})
		}
	}
	if internal {
		c.addFields(pkg)
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			c.addInterface(it)
		}
	}
}

// addPackageInterfaces records the interfaces pkg and its imports declare
// at package level, standard library ones included.
func (c *exportCheck) addPackageInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				c.addInterface(it)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		c.addPackageInterfaces(imp, seen)
	}
}

func (c *exportCheck) addInterface(it *types.Interface) {
	if !it.IsMethodSet() {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		c.ifaces[name] = append(c.ifaces[name], it)
	}
}

// receiver returns the named type fn is a method of, or nil for a
// function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	T := recv.Type()
	if ptr, ok := T.(*types.Pointer); ok {
		T = ptr.Elem()
	}
	return T.(*types.Named)
}

// implements reports whether fn is a method whose receiver type, or a
// pointer to it, satisfies an interface that declares fn's name.
func (c *exportCheck) implements(fn *types.Func) bool {
	T := receiver(fn)
	if T == nil {
		return false
	}
	for _, it := range c.ifaces[fn.Name()] {
		if types.Implements(T, it) || types.Implements(types.NewPointer(T), it) {
			return true
		}
	}
	return false
}

// addFields records the exported fields of the struct types pkg declares
// at package level. A json-tagged field counts as set: decoding writes it.
func (c *exportCheck) addFields(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			c.fields = append(c.fields, f)
			c.owner[f] = tn
			if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "-" {
				c.set[f] = true
			}
		}
	}
}

// setField records the field e selects, if it selects one, as set.
func (c *exportCheck) setField(info *types.Info, e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if f, ok := info.Uses[sel.Sel].(*types.Var); ok && f.IsField() {
			c.set[f.Origin()] = true
		}
	}
}

// setLiteral records the fields a struct literal sets: each key of a keyed
// literal, every field of an unkeyed one.
func (c *exportCheck) setLiteral(info *types.Info, lit *ast.CompositeLit) {
	st, ok := info.Types[lit].Type.Underlying().(*types.Struct)
	if !ok || len(lit.Elts) == 0 {
		return
	}
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
		for i := 0; i < st.NumFields(); i++ {
			c.set[st.Field(i).Origin()] = true
		}
		return
	}
	for _, e := range lit.Elts {
		if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Var); ok {
				c.set[f.Origin()] = true
			}
		}
	}
}

// key names obj as the allowlists do: internal/<pkg>.[<Type>.]<Name>.
func (c *exportCheck) key(obj types.Object) string {
	k := strings.TrimPrefix(obj.Pkg().Path(), c.module+"/") + "."
	switch obj := obj.(type) {
	case *types.Func:
		if T := receiver(obj); T != nil {
			k += T.Obj().Name() + "."
		}
	case *types.Var:
		k += c.owner[obj].Name() + "."
	}
	return k + obj.Name()
}

// check returns one line per unreferenced export not on allow, and one per
// allow entry that is stale or gives no reason.
func (c *exportCheck) check(allow map[string]string) []string {
	var flagged []types.Object
	for _, fn := range c.candidates {
		if !c.used[fn] && !c.byName[fn.Name()] && !c.implements(fn) {
			flagged = append(flagged, fn)
		}
	}
	return c.verdict(flagged, allow, nil, "has no non-test caller", "unreferenced export")
}

// checkFields returns one line per exported field that no non-test code
// sets and that neither allow nor a package entry of pkgs covers, and one
// per allow entry that is stale or gives no reason. The package entries
// are not judged here: the function check judges them.
func (c *exportCheck) checkFields(allow, pkgs map[string]string) []string {
	var flagged []types.Object
	for _, f := range c.fields {
		if !c.set[f] && !c.byName[f.Name()] {
			flagged = append(flagged, f)
		}
	}
	return c.verdict(flagged, allow, pkgs, "has no non-test setter", "unset field")
}

// verdict lists the flagged objects that neither allow nor a package entry
// of pkgs covers, then the allow entries that give no reason or cover no
// flagged object.
func (c *exportCheck) verdict(flagged []types.Object, allow, pkgs map[string]string, fail, kind string) []string {
	hit := map[string]bool{}
	var problems []string
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].Pos() < flagged[j].Pos() })
	for _, obj := range flagged {
		k, pkg := c.key(obj), strings.TrimPrefix(obj.Pkg().Path(), c.module+"/")
		if allow[k] != "" || allow[pkg] != "" || pkgs[pkg] != "" {
			hit[k], hit[pkg] = true, true
			continue
		}
		pos := c.fset.Position(obj.Pos())
		if rel, err := filepath.Rel(c.root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		problems = append(problems, fmt.Sprintf("%s: %s %s", pos, k, fail))
	}
	var keys []string
	for k := range allow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch {
		case allow[k] == "":
			problems = append(problems, fmt.Sprintf("allowlist: %s gives no reason", k))
		case !hit[k]:
			problems = append(problems, fmt.Sprintf("allowlist: %s is stale: no %s has that name", k, kind))
		}
	}
	return problems
}
