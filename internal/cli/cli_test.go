package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestListSplitsTrimsAndResolves(t *testing.T) {
	var seen []string
	got, err := List(" ldr, aodv ,dsr", func(name string) error {
		seen = append(seen, name)
		return nil
	})
	want := []string{"ldr", "aodv", "dsr"}
	if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(seen, want) {
		t.Fatalf("List = %v, %v (resolver saw %v), want %v", got, err, seen, want)
	}
	if got, err := List("", func(string) error { return errors.New("resolver called on the empty list") }); got != nil || err != nil {
		t.Fatalf("List(\"\") = %v, %v, want nil, nil", got, err)
	}
	bad := errors.New("unknown")
	if _, err := List("ldr,,aodv", func(name string) error {
		if name == "" {
			return bad
		}
		return nil
	}); err != bad {
		t.Fatalf("List did not pass the empty element to the resolver: %v", err)
	}
}

// bound is the flag surface of ldrbench on a private FlagSet.
func bound(t *testing.T, args ...string) *Experiment {
	t.Helper()
	e := &Experiment{}
	e.Seed, e.Trials, e.SimTime = 1, 3, time.Minute
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e.Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRejectedCommandLineLeavesNothingBehind: whichever shared flag is
// wrong, Options fails before the journal directory is created
// (cmd/ldrbench's test of the same name runs a whole command, -profiles
// and profile files included).
func TestRejectedCommandLineLeavesNothingBehind(t *testing.T) {
	for _, bad := range [][]string{
		{"-protocols", "ldr,nope"},
		{"-trials", "0"},
		{"-simtime", "0s"},
		{"-workers", "-1"},
		{"-cell-timeout", "-1s"},
	} {
		dir := filepath.Join(t.TempDir(), "journal")
		e := bound(t, append(bad, "-journal", dir)...)
		if _, err := e.Options(); err == nil {
			t.Errorf("%v: accepted", bad)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: rejected, but the journal directory was created first", bad)
		}
	}
	if _, err := bound(t, "-resume").Options(); err == nil {
		t.Error("-resume without -journal accepted")
	}
}

// TestReadmeDocumentsEverySharedFlag checks README's flag reference
// against the binding: a flag added here must be documented there.
func TestReadmeDocumentsEverySharedFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	new(Experiment).Bind(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(string(readme), "`-"+f.Name) {
			t.Errorf("README.md does not document -%s", f.Name)
		}
	})
}

// TestParseRejectsPositionalArguments: ldrsim used to run with a stray
// argument after its flags; every command now goes through Parse.
func TestParseRejectsPositionalArguments(t *testing.T) {
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	flag.CommandLine = flag.NewFlagSet("ldrsim", flag.ContinueOnError)
	flag.Int("nodes", 50, "")
	os.Args = []string{"ldrsim", "-nodes", "10", "bogus"}
	if err := Parse("intro"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("Parse accepted a positional argument: %v", err)
	}
	os.Args = []string{"ldrsim", "-nodes", "10"}
	if err := Parse("intro"); err != nil {
		t.Fatal(err)
	}
}
