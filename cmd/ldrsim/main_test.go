package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ldrsim runs the command on args with a fresh flag set and returns what
// it printed on standard output.
func ldrsim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	oldArgs, oldFlags, oldOut := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldOut }()
	flag.CommandLine = flag.NewFlagSet("ldrsim", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	os.Stdout = out
	os.Args = append([]string{"ldrsim"}, args...)
	runErr := run()
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), runErr
}

// TestRejectedProtoLeavesNoProfile: -proto used to be checked inside the
// run, after -cpuprofile's file had been created.
func TestRejectedProtoLeavesNoProfile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cpu.pprof")
	if _, err := ldrsim(t, "-proto", "nope", "-cpuprofile", file); err == nil || !strings.Contains(err.Error(), `unknown protocol "nope"`) {
		t.Fatalf("run() = %v, want the unknown protocol rejected", err)
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Error("-proto was rejected, but the profile file was created first")
	}
}

// TestRejectedCellFlagsLeaveNoProfile: every cell or watch value that
// cannot run, and every watch flag that would do nothing, is refused
// before -cpuprofile's file is created.
func TestRejectedCellFlagsLeaveNoProfile(t *testing.T) {
	for _, bad := range [][]string{
		{"-proto", "nope"},
		{"-nodes", "1"},
		{"-flows", "0"},
		{"-pause", "-1s"},
		{"-width", "-1"},
		{"-maxspeed", "0"},
		{"-interval", "-1s"},
		{"-packets", "-1"},
		{"-interval", "5s", "-dest", "50"},
		{"-interval", "5s", "-dest", "-1"},
		{"-dest", "3"},
		{"-interval", "5s", "-trials", "2"},
		{"-packets", "5", "-trials", "2"},
	} {
		file := filepath.Join(t.TempDir(), "cpu.pprof")
		if _, err := ldrsim(t, append(bad, "-cpuprofile", file)...); err == nil {
			t.Errorf("%v: accepted", bad)
		}
		if _, err := os.Stat(file); !os.IsNotExist(err) {
			t.Errorf("%v: rejected, but the profile file was created first", bad)
		}
	}
}

// TestCellHelpListsWhatFactoryResolves: every protocol -proto's help
// names is one scenario.Factory builds.
func TestCellHelpListsWhatFactoryResolves(t *testing.T) {
	for _, p := range cellProtocols {
		if err := (&cellFlags{proto: string(p), nodes: 2, flows: 1, maxSpeed: 1}).validate(); err != nil {
			t.Errorf("-proto help lists %q: %v", p, err)
		}
	}
}

// TestWatchingDoesNotPerturbTheRun: the route dumps, the live loopcheck
// and the packet paths observe the run; the report after them is the
// unwatched run's, line for line, wall clock aside.
func TestWatchingDoesNotPerturbTheRun(t *testing.T) {
	wall := regexp.MustCompile(`\([0-9.]+s wall\)`)
	for _, proto := range []string{"ldr", "aodv"} {
		cell := []string{"-proto", proto, "-nodes", "20", "-flows", "5", "-pause", "0s", "-simtime", "30s"}
		plain, err := ldrsim(t, cell...)
		if err != nil {
			t.Fatal(err)
		}
		watched, err := ldrsim(t, append(cell, "-interval", "5s", "-dest", "3", "-packets", "5")...)
		if err != nil {
			t.Fatal(err)
		}
		report := watched[strings.Index(watched, "protocol "):]
		if got, want := wall.ReplaceAllString(report, ""), wall.ReplaceAllString(plain, ""); got != want {
			t.Errorf("%s: watching changed the report:\n%s\nwant\n%s", proto, got, want)
		}
		if n := strings.Count(watched, "--- t="); n != 6 {
			t.Errorf("%s: %d route dumps, want 6 (every 5 s of 30 s)", proto, n)
		}
		if strings.Count(watched, "invariants: OK") != 6 {
			t.Errorf("%s: a dump did not report a clean loopcheck:\n%s", proto, watched)
		}
		if !strings.Contains(watched, "--- last 5 delivered packet paths ---") {
			t.Errorf("%s: no packet paths printed", proto)
		}
	}
}

// TestReadmeDocumentsEveryCellFlag: README's flag table lists ldrsim's
// own flags beside the shared ones internal/cli checks.
func TestReadmeDocumentsEveryCellFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	new(cellFlags).bind(fs)
	new(watch).bind(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(string(readme), "`-"+f.Name) {
			t.Errorf("README.md does not document -%s", f.Name)
		}
	})
}
