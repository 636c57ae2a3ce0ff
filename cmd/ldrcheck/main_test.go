package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// runWith runs the command on args, as main would.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	flag.CommandLine = flag.NewFlagSet("ldrcheck", flag.ContinueOnError)
	os.Args = append([]string{"ldrcheck", "-q"}, args...)
	return run()
}

// TestExitStatus covers the command's four verdicts and a refused budget.
// A run cut short by -max-states used to print TRUNCATED and exit 0, so a
// sweep that proved nothing for a cell passed `make modelcheck`.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // "" = exit 0
	}{
		{"clean", []string{"-protocol", "ldr", "-depth", "8"}, ""},
		{"violation", []string{"-protocol", "aodv"}, "1 violating topology"},
		{"expected violation", []string{"-protocol", "aodv", "-expect-violation"}, ""},
		{"expected violation, none found", []string{"-protocol", "ldr", "-depth", "8", "-expect-violation"}, "expected a violation"},
		{"truncated", []string{"-protocol", "ldr", "-max-states", "100"}, "ldr on line3"},
		// Past the cap the search goes on expanding what it has; a violation
		// it still reaches is a violation.
		{"violation past the cap", []string{"-protocol", "aodv", "-max-states", "2000"}, "1 violating topology"},
		{"expected violation past the cap", []string{"-protocol", "aodv", "-max-states", "2000", "-expect-violation"}, ""},
		// Of two negative budgets the first declared is named; the check
		// used to range over a map and name either.
		{"negative budgets", []string{"-vresets", "-1", "-dups", "-1"}, "-dups must be ≥ 0 (got -1)"},
	} {
		tc.args = append(tc.args, "-resets", "1", "-drops", "1")
		err := runWith(t, tc.args...)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v, want exit 0", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestModelCheckFailsOnTruncatedCell: a cell that hit the state cap
// without finding a violation has proved nothing, so -expect-violation must
// not pass the sweep on the strength of another cell that found one.
func TestModelCheckFailsOnTruncatedCell(t *testing.T) {
	err := runWith(t, "-protocol", "aodv", "-topology", "sweep3", "-max-states", "3000", "-expect-violation", "-resets", "1", "-drops", "1")
	if want := "aodv on n3-1 {0-1 0-2 1-2}: truncated"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v, want one containing %q", err, want)
	}
}

// TestFlowsMustBeExact: each -flows entry is exactly src>dst. The parser
// used to stop reading at the second number, so 0>2>1 explored 0>2, and
// 1>0junk explored 1>0, both exiting 0.
func TestFlowsMustBeExact(t *testing.T) {
	for _, tc := range []struct{ flows, bad string }{
		{"0>2>1", "0>2>1"},
		{"0>2,1>0junk", "1>0junk"},
		{"0>2,>1", ">1"},
		{"0>2,1", "1"},
		{"0>+2", "0>+2"},
		{"0>-1", "0>-1"},
		{"0 >2", "0 >2"},
	} {
		err := runWith(t, "-flows", tc.flows, "-depth", "1")
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("bad flow %q", tc.bad)) {
			t.Errorf("-flows %q: error %v, want one naming flow %q", tc.flows, err, tc.bad)
		}
	}
	if err := runWith(t, "-flows", "0>2, 1>0", "-depth", "1"); err != nil {
		t.Errorf("-flows \"0>2, 1>0\": %v, want exit 0", err)
	}
}

// TestOutputIsDeterministic: the -q result lines are the model check's
// regression oracle, so they carry no wall-clock figure and do not depend
// on how many workers expand a layer.
func TestOutputIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var outs []string
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		out := captureStdout(t, func() error {
			return runWith(t, "-topology", "sweep3", "-resets", "1", "-drops", "1")
		})
		if strings.Count(out, "\n") != 2 || strings.Count(out, " ok\n") != 2 {
			t.Fatalf("GOMAXPROCS %d: want two clean result lines, got:\n%s", procs, out)
		}
		outs = append(outs, out)
	}
	if outs[0] != outs[1] {
		t.Errorf("stdout differs between GOMAXPROCS 1 and 2:\n%s\n%s", outs[0], outs[1])
	}
}

// captureStdout returns what run writes to standard output.
func captureStdout(t *testing.T, run func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = run()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
