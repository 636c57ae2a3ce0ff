package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectedProtoLeavesNoProfile: -proto used to be checked inside the
// run, after -cpuprofile's file had been created.
func TestRejectedProtoLeavesNoProfile(t *testing.T) {
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	flag.CommandLine = flag.NewFlagSet("ldrsim", flag.ContinueOnError)
	file := filepath.Join(t.TempDir(), "cpu.pprof")
	os.Args = []string{"ldrsim", "-proto", "nope", "-cpuprofile", file}
	if err := run(); err == nil || !strings.Contains(err.Error(), `unknown protocol "nope"`) {
		t.Fatalf("run() = %v, want the unknown protocol rejected", err)
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Error("-proto was rejected, but the profile file was created first")
	}
}
