package main

import (
	"flag"
	"fmt"
	"os"
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

// TestExitStatus covers the command's four verdicts. A run cut short by
// -max-states used to print TRUNCATED and exit 0, so a sweep that proved
// nothing for a cell passed `make modelcheck`.
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
