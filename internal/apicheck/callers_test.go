package apicheck

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
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// moduleRoot is the repository root relative to this package, and
// modulePath its import path (go.mod).
const (
	moduleRoot = "../.."
	modulePath = "zdr"
)

// testOnly lists the exported names that only other packages' tests
// use, each with the tests that need it. TestCallers fails on an entry
// that a non-test caller has since reached, or that no longer exists:
// the list may only shrink.
var testOnly = map[string]string{
	"appserver.Server.Serve":           "proxy startCountedHops",
	"bufpool.TierMedium":               "h2t TestStreamWriteToModel",
	"consistent.Maglev.Pick":           "bench_test.go BenchmarkMaglevVsRing",
	"core.ReadReleaseReport":           "experiments TestReleaseReport, experiments TestReleaseReportTwoPhaseAbort",
	"core.RestartOption":               "fleet Restart",
	"disrupt.Ledger.Recent":            "faults TestChaosAppServerRestartKeepAlive",
	"experiments.Table.Rows":           "bench_test.go BenchmarkFig10UDPMisrouting, bench_test.go BenchmarkFig11PPRDisruption, ...",
	"faults.ErrInjected":               "faults TestChaosProbePartitionSteersAwayThenHeals, h2t TestAbortedWriteEmitsNothingTwice",
	"faults.Injector.Injected":         "faults TestChaosDialFailuresAbsorbedByRetries, faults TestChaosProbePartitionSteersAwayThenHeals, ...",
	"faults.Injector.Listener":         "proxy startCountedHops",
	"faults.Injector.SetPartitioned":   "fleet TestFleetChaosControlPartitionMidWindow, fleet TestOrchestratorPartitionedControlPlane, ...",
	"faults.Injector.WriteCalls":       "h2t TestAbortedWriteEmitsNothingTwice, h2t TestTornWriteIsFinal, ...",
	"faults.OpAbort":                   "faults TestChaosDialFailuresAbsorbedByRetries",
	"faults.OpDropPacket":              "faults TestChaosUDPBoundedLoss, quicx TestServerSideDropsAbsorbedByRetries",
	"faults.OpDropRPC":                 "fleet TestFleetChaosControlPartitionMidWindow, fleet TestTelemetryControlPartition",
	"faults.OpFailDial":                "faults TestChaosDialFailuresAbsorbedByRetries, faults TestChaosProbePartitionSteersAwayThenHeals",
	"faults.OpPartialWrite":            "h2t TestPartialWritesKeepFramesWhole",
	"faults.Scenario.DialDelayMax":     "faults TestChaosEdgeRestartKeepsIdleKeepAlives, faults TestChaosMultiOriginDCRReconnect, ...",
	"faults.Scenario.DialDelayRate":    "faults TestChaosEdgeRestartKeepsIdleKeepAlives, faults TestChaosMultiOriginDCRReconnect, ...",
	"faults.Scenario.DialFailRate":     "faults TestChaosDialFailuresAbsorbedByRetries, faults TestChaosProbePartitionSteersAwayThenHeals",
	"faults.Scenario.DropRate":         "faults TestChaosUDPBoundedLoss, quicx TestServerSideDropsAbsorbedByRetries",
	"faults.Scenario.MaxOps":           "faults TestChaosDialFailuresAbsorbedByRetries, faults TestChaosUDPBoundedLoss, ...",
	"faults.Scenario.PartialWriteRate": "faults TestChaosEdgeRestartKeepsIdleKeepAlives, faults TestChaosFaultWrappedKeepAliveServes, ...",
	"faults.Scenario.ReadStallMax":     "faults TestChaosEdgeRestartKeepsIdleKeepAlives, faults TestChaosFaultWrappedKeepAliveServes, ...",
	"faults.Scenario.ReadStallRate":    "faults TestChaosEdgeRestartKeepsIdleKeepAlives, faults TestChaosFaultWrappedKeepAliveServes, ...",
	"faults.Scenario.WriteDelayMax":    "faults TestChaosEdgeRestartKeepsIdleKeepAlives, faults TestChaosMultiOriginDCRReconnect, ...",
	"faults.Scenario.WriteDelayRate":   "faults TestChaosEdgeRestartKeepsIdleKeepAlives, faults TestChaosMultiOriginDCRReconnect, ...",
	"h2t.FlagWindow":                   "proxy TestOriginAnnouncesAtAccept",
	"h2t.FrameSettings":                "proxy TestOriginAnnouncesAtAccept",
	"h2t.ReadFrame":                    "proxy TestOriginAnnouncesAtAccept",
	"http1.StatusMessagePartialPost":   "proxy TestShort379IsNotReplayed",
	"katran.LB.HealthyBackends":        "proxy TestKatranEvictsHardRestartingEdge, proxy TestKatranNeverNoticesZDRRestart",
	"katran.LB.ProbeOnce":              "proxy TestKatranEvictsHardRestartingEdge, proxy TestKatranNeverNoticesZDRRestart",
	"katran.LB.SetHealth":              "katran Example, bench_test.go BenchmarkAblationLRUFlowCache",
	"katran.LoadSample.Draining":       "proxy TestLoadProbeAnswersPhase",
	"katran.ParseLoadLine":             "proxy releasePhaseAgrees",
	"metrics.NewAtomicHistogram":       "fleet TestTelemetryWindowBetween",
	"mqtt.Broker.DropSession":          "proxy TestDCRRefusedDropsConnection, proxy TestTeardownNeverWaitsForAParkedWrite",
	"mqtt.Broker.SessionAttached":      "faults TestChaosMultiOriginDCRReconnect, faults TestChaosRollingRestartZeroDisruption",
	"mqtt.Broker.SetFaults":            "faults TestChaosRollingRestartZeroDisruption",
	"mqtt.Client.Publish":              "proxy TestOneWritePerMQTTPacketPerHop",
	"mqtt.PINGREQ":                     "proxy TestTeardownNeverWaitsForAParkedWrite",
	"mqtt.PUBACK":                      "proxy TestOneReadPerMQTTPacketPerHop, proxy TestOneWritePerMQTTPacketPerHop",
	"mqtt.Packet.TopicFilters":         "proxy TestOneReadPerMQTTPacketPerHop, proxy TestOneWritePerMQTTPacketPerHop",
	"mqtt.PacketType":                  "proxy TestOneWritePerMQTTPacketPerHop",
	"mqtt.SUBACK":                      "proxy TestOneReadPerMQTTPacketPerHop, proxy TestOneWritePerMQTTPacketPerHop",
	"mqtt.SUBSCRIBE":                   "proxy TestOneReadPerMQTTPacketPerHop, proxy TestOneWritePerMQTTPacketPerHop",
	"mqtt.TopicMatches":                "mqtt ExampleTopicMatches",
	"netx.SetFDHook":                   "experiments TestReleaseReportTwoPhaseAbort, faults TestChaosAbortBeforeCommitZeroDisruption, ...",
	"netx.SocketCookie":                "takeover TestServerLeaseBreakUndo",
	"netx.WakeReads":                   "http1 TestKeepAliveServesHoweverRequestsArrive, proxy TestOneReadPerHopPerMessage, ...",
	"obs.Span.Name":                    "experiments TestReleaseReport, faults TestChaosTracedRollingRestartSpanTree",
	"obs.Walk":                         "experiments TestReleaseReportTwoPhaseAbort, faults TestChaosTracedRollingRestartSpanTree, ...",
	"proxy.Config.Faults":              "faults TestChaosDialFailuresAbsorbedByRetries, faults TestChaosEdgeRestartKeepsIdleKeepAlives, ...",
	"proxy.Config.PPRRetries":          "faults TestChaosDialFailuresAbsorbedByRetries",
	"proxy.Config.RetryBackoff":        "faults TestChaosDialFailuresAbsorbedByRetries",
	"proxy.Proxy.Name":                 "faults TestChaosAdminHealthzAcrossTakeover, faults TestChaosEdgeRestartKeepsIdleKeepAlives",
	"quicx.Client.Send":                "proxy TestEdgeQUICSurvivesTakeover, proxy TestEdgeQUICVIPServes",
	"racetest.SkipAllocs":              "core TestRestartHeapAllocation, h2t TestStreamAllocations, ...",
	"takeover.Result.OrphanedFDs":      "takeover Example",
}

// TestCallers is the caller rule: every exported top-level name, method
// of an exported type and field of an exported struct of a package under
// internal/ is used by some other package outside its _test.go files
// (cmd/ and bench/ count). Exempt are fields with a json tag (a wire or
// file format), methods that make their type satisfy an interface of
// the module or of io, fmt, net, net/http or error, and testOnly. A type
// counts as used when another package names it or reaches one of its
// fields or methods.
func TestCallers(t *testing.T) {
	start := time.Now()
	m := loadModule(t)
	used := m.crossPackageUses()
	ifaces := m.interfaces(t)
	allowed := map[string]bool{}
	var bad []string
	paths := m.internalPaths()
	for _, path := range paths {
		var top, methods, fields int
		for _, d := range exportedDecls(m.pkgs[path]) {
			switch {
			case d.field && d.jsonTag:
				continue
			case d.field:
				fields++
			case d.method:
				methods++
			default:
				top++
			}
			short := strings.TrimPrefix(d.key, modulePath+"/internal/")
			if _, ok := testOnly[short]; ok {
				allowed[short] = true
				if used[d.key] {
					bad = append(bad, short+": has a non-test caller now; drop it from testOnly")
				}
				continue
			}
			if used[d.key] || (d.method && satisfiesAny(d, ifaces)) {
				continue
			}
			bad = append(bad, short+": no other package uses it outside _test.go files")
		}
		t.Logf("exported %4d (top %3d, methods %3d, fields %3d) %s", top+methods+fields, top, methods, fields, path)
	}
	for k := range testOnly {
		if !allowed[k] {
			bad = append(bad, k+": in testOnly but not an exported name")
		}
	}
	sort.Strings(bad)
	t.Logf("caller check: %d packages, %d test-only names, %v", len(paths), len(testOnly), time.Since(start).Round(time.Millisecond))
	for _, b := range bad {
		t.Error(b)
	}
}

// module is every non-test package of the module, type-checked once.
type module struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	std   types.ImporterFrom
}

func loadModule(t *testing.T) *module {
	m := &module{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	for _, top := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(filepath.Join(moduleRoot, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			rel, _ := filepath.Rel(moduleRoot, filepath.Dir(p))
			m.dirs[modulePath+"/"+filepath.ToSlash(rel)] = filepath.Dir(p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path := range m.dirs {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import type-checks a module package from source (once), and hands any
// other import path to the standard library's source importer.
func (m *module) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.ImportFrom(path, moduleRoot, 0)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	m.pkgs[path], m.infos[path] = p, info
	return p, nil
}

func (m *module) internalPaths() []string {
	var out []string
	for path := range m.pkgs {
		if strings.HasPrefix(path, modulePath+"/internal/") {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// crossPackageUses returns the keys (see objectKey) of the module's
// objects that some other package uses: by name, as a selector, as a
// composite-literal key, or as an embedded field a selection passes
// through. A use of a member marks its type used too.
func (m *module) crossPackageUses() map[string]bool {
	used := map[string]bool{}
	fields := map[*types.Package]map[*types.Var]string{}
	mark := func(from string, obj types.Object) {
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == from {
			return
		}
		if k := objectKey(obj, fields); k != "" {
			used[k] = true
			if owner, ok := memberOwner(k); ok {
				used[owner] = true
			}
		}
	}
	for from, info := range m.infos {
		for _, obj := range info.Uses {
			mark(from, obj)
		}
		for _, sel := range info.Selections {
			t := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				mark(from, st.Field(i))
				t = st.Field(i).Type()
			}
		}
	}
	return used
}

// memberOwner returns "path.Type" for a member key "path.Type.Member";
// a top-level key ("path.Name") has no owner.
func memberOwner(key string) (string, bool) {
	last := key[strings.LastIndex(key, "/")+1:]
	if strings.Count(last, ".") < 2 {
		return "", false
	}
	return key[:strings.LastIndex(key, ".")], true
}

// objectKey names a package-level object "path.Name", and a method or
// struct field of a package-level type "path.Type.Name"; anything else
// is "". fields caches each package's struct fields by object.
func objectKey(obj types.Object, fields map[*types.Package]map[*types.Var]string) string {
	pkg := obj.Pkg()
	switch o := obj.(type) {
	case *types.Func:
		recv := o.Origin().Type().(*types.Signature).Recv()
		if recv == nil {
			break
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg.Path() + "." + n.Origin().Obj().Name() + "." + o.Name()
		}
		return ""
	case *types.Var:
		if !o.IsField() {
			break
		}
		if fields[pkg] == nil {
			fields[pkg] = map[*types.Var]string{}
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok {
					continue
				}
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						fields[pkg][st.Field(i)] = pkg.Path() + "." + name + "." + st.Field(i).Name()
					}
				}
			}
		}
		return fields[pkg][o.Origin()]
	}
	if obj.Parent() == pkg.Scope() {
		return pkg.Path() + "." + obj.Name()
	}
	return ""
}

// decl is one exported name of a package.
type decl struct {
	key           string
	method, field bool
	jsonTag       bool
	name          string
	recv          *types.Named
}

func exportedDecls(pkg *types.Package) []decl {
	var out []decl
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		key := pkg.Path() + "." + name
		out = append(out, decl{key: key, name: name})
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if fn := named.Method(i); fn.Exported() {
				out = append(out, decl{key: key + "." + fn.Name(), method: true, name: fn.Name(), recv: named})
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					tag := reflect.StructTag(st.Tag(i)).Get("json")
					out = append(out, decl{key: key + "." + f.Name(), field: true, jsonTag: tag != "", name: f.Name()})
				}
			}
		}
	}
	return out
}

// interfaces returns every non-empty interface the module declares or
// writes out (type assertions included), those of io, fmt, net and
// net/http, and error.
func (m *module) interfaces(t *testing.T) []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	addScope := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	for path, info := range m.infos {
		addScope(m.pkgs[path])
		for _, tv := range info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	for _, path := range []string{"io", "fmt", "net", "net/http"} {
		p, err := m.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		addScope(p)
	}
	add(types.Universe.Lookup("error").Type())
	return out
}

func satisfiesAny(d decl, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == d.name
		}
		if has && (types.Implements(d.recv, it) || types.Implements(types.NewPointer(d.recv), it)) {
			return true
		}
	}
	return false
}
