package ldr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnly lists the exported calls under internal/ and cmd/ that no
// non-test code names, each with the tests that use it and why it stays.
// The key is package.Name for a function, package.Type.Method for a
// method, or a bare method name for every method of that name.
var testOnly = map[string]struct{ users, why string }{
	"MarshalJSON":   {"TestCollectorJSONRoundTrip", "encoding/json reaches it: journal payloads carry latency histograms"},
	"UnmarshalJSON": {"TestCollectorJSONRoundTrip, TestLatencyHistogramRejectsHostileJSON", "encoding/json reaches it when a journal payload is read back"},

	"conformance.Capture":               {"TestCaptureByteIdentical, TestCaptureWorkerInvariance", "replay tooling: a run's trace, the oracle that pools and worker counts change no byte"},
	"conformance.Diff":                  {"TestDiffPinpointsFirstDivergence, TestCaptureByteIdentical", "replay tooling: names the first event where two captures part"},
	"conformance.LoadSpec":              {"TestLoadSpecRejectsUnknownKeys, FuzzLoadSpec", "oracle tooling: reads the committed seed specs"},
	"conformance.CheckSpec":             {"FuzzScenario, TestAckExhaustAccounted", "oracle tooling: runs a spec under the conservation harness"},
	"conformance.Ledger.ViolationCount": {"TestLedgerFlagsLifecycleViolations", "oracle tooling: the exact count of one violation kind"},

	"sweep.Each":                 {"TestEachCancellationProperty, TestConservationMatrix", "the worker pool RunCells is built on, for checks that journal nothing"},
	"sweep.CellError.Unwrap":     {"TestRunCellsWatchdogInterrupts, TestRunCellsWatchdogAbandons", "errors.As reaches it: a fail-fast sweep returns a *CellError around the CellTimeout or CellPanic"},
	"dsr.DSR.CachedRoute":        {"TestDSRDiscoversFullSourceRoute, TestBrokenLinkPurgedEverywhereViaRERR", "the only view of a DSR route cache"},
	"olsr.OLSR.MPRs":             {"TestMPRSelectionCoversTwoHopSet, TestOLSRChainMPRSelection", "the only view of a node's MPR set"},
	"mobility.Grid":              {"TestGridPlacement, TestKeptPositionPromise", "a fixed placement the mobility promise tests start from"},
	"resilience.Journal.Corrupt": {"TestJournalPutGetReload, TestResultsDocMatchesJournals, FuzzJournalRecord", "how many records Open skipped; the committed journal must have none"},
	"resilience.LoadManifest":    {"TestManifestRoundTrip, TestPanicQuarantineEndToEnd", "reads back the failure manifest a keep-going run writes"},
}

// TestEveryExportHasAUser requires every exported function and method
// declared under internal/ or cmd/ to be named somewhere in the module's
// non-test code outside its own declaration, or to be listed in testOnly:
// an export only tests reach is dead weight unless something says why it
// stays. The match is by name, so a dead method that shares its name with
// a live one (or with an interface method) goes unseen; a live one is
// never flagged.
func TestEveryExportHasAUser(t *testing.T) {
	type decl struct {
		key, method string // package.Name or package.Type.Method; the bare method name
		name        string
		file        string
		pos, end    token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string][]token.Pos{} // identifier → every non-declaring use in non-test code
	tests := map[string]bool{}       // top-level functions of _test.go files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		path = filepath.ToSlash(path)
		isTest := strings.HasSuffix(path, "_test.go")
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if isTest {
			for _, dl := range f.Decls {
				if fd, ok := dl.(*ast.FuncDecl); ok && fd.Recv == nil {
					tests[fd.Name.Name] = true
				}
			}
			return nil
		}
		names := map[*ast.Ident]bool{}
		census := strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if !census || !fd.Name.IsExported() {
				continue
			}
			pkg := filepath.Base(filepath.Dir(path))
			key, method := pkg+"."+fd.Name.Name, ""
			if fd.Recv != nil {
				method = fd.Name.Name
				key = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + method
			}
			decls = append(decls, decl{key, method, fd.Name.Name, path, fd.Pos(), fd.End()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	listed := map[string]bool{}
	for _, d := range decls {
		used := false
		for _, pos := range refs[d.name] { // a FileSet gives each file its own range
			if pos < d.pos || pos >= d.end {
				used = true
				break
			}
		}
		if used {
			continue
		}
		entry, key := testOnly[d.key], d.key
		if entry.why == "" && d.method != "" {
			entry, key = testOnly[d.method], d.method
		}
		if entry.why == "" {
			t.Errorf("%s (%s): no non-test code names it; delete it, or list its test users in testOnly and say why it stays", d.key, d.file)
			continue
		}
		listed[key] = true
	}
	var keys []string
	for k := range testOnly {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := testOnly[k]
		if !listed[k] {
			t.Errorf("testOnly lists %s, which is not an export only tests reach; drop the entry", k)
		}
		if e.users == "" || e.why == "" {
			t.Errorf("testOnly[%s] must name its test users and say why it stays", k)
		}
		for _, u := range strings.Split(e.users, ", ") {
			if !tests[u] {
				t.Errorf("testOnly[%s] names %s, which no _test.go declares", k, u)
			}
		}
	}
}

// recvType is the name of a method's receiver type, without pointer or
// type parameters.
func recvType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
