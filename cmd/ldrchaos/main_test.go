package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// chaos runs the command's run() on args with a fresh flag set and its
// table output discarded.
func chaos(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	os.Stdout = null
	flag.CommandLine = flag.NewFlagSet("ldrchaos", flag.ContinueOnError)
	os.Args = append([]string{"ldrchaos"}, args...)
	return run()
}

// TestRejectedCommandLineLeavesNothingBehind: -cpuprofile and -memprofile
// are created once everything else has been accepted, so a rejected
// command line leaves neither a profile nor the journal directory; an
// accepted one writes both profiles.
func TestRejectedCommandLineLeavesNothingBehind(t *testing.T) {
	for _, bad := range [][]string{
		{"-profiles", "nope"},
		{"-adversary", "nope"},
		{"-profiles", "lossy", "-adversary", "storm"},
		{"-audit", "0s"},
		{"-protocols", "ldr,nope"},
		{"-trials", "0"},
	} {
		dir := t.TempDir()
		cpu, mem, journal := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "journal")
		if err := chaos(t, append(bad, "-cpuprofile", cpu, "-memprofile", mem, "-journal", journal)...); err == nil {
			t.Errorf("%v: accepted", bad)
		}
		for _, path := range []string{cpu, mem, journal} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%v: rejected, but %s was created first", bad, filepath.Base(path))
			}
		}
	}

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := chaos(t, "-profiles", "lossy", "-protocols", "ldr", "-trials", "1", "-workers", "1", "-simtime", "2s",
		"-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s after an accepted run: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
	if err := chaos(t, "-profiles", "none", "-cpuprofile", filepath.Join(dir, "no-such-dir", "cpu.pprof")); err == nil {
		t.Error("an unwritable -cpuprofile path was accepted")
	}
}
