package resilience

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// HandleSignals installs SIGINT/SIGTERM handling for a journaled sweep
// command. On the first signal it syncs the journal directory (making
// every renamed record durable), reports the journal state, prints the
// exact command that resumes the sweep, and exits 130. Without a journal
// it still explains how to make the run resumable. Call once, before the
// sweep starts.
func HandleSignals(j *Journal, out io.Writer) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		prog := filepath.Base(os.Args[0])
		if j != nil {
			_ = j.Sync()
			fmt.Fprintf(out, "\n%s: %v; journal %s holds %d completed cell(s), all durable\n",
				prog, sig, j.Dir(), j.Len())
			fmt.Fprintf(out, "%s: resume with: %s\n", prog, ResumeCommand(os.Args))
		} else {
			fmt.Fprintf(out, "\n%s: %v; no journal — progress is lost (rerun with -journal DIR to make sweeps resumable)\n",
				prog, sig)
		}
		os.Exit(130)
	}()
}

// ResumeCommand renders the exact command line that resumes the current
// invocation: the original arguments with -resume appended if absent. A
// -resume=<v> or --resume=<v> argument, whatever its value, becomes a
// bare -resume. Arguments containing whitespace are quoted so the line
// can be pasted into a shell verbatim.
func ResumeCommand(args []string) string {
	hasResume := false
	quoted := make([]string, 0, len(args)+1)
	for i, a := range args {
		if i > 0 && (strings.HasPrefix(a, "-resume=") || strings.HasPrefix(a, "--resume=")) {
			a = "-resume"
		}
		if i > 0 && (a == "-resume" || a == "--resume") {
			hasResume = true
		}
		if strings.ContainsAny(a, " \t'\"") {
			a = "'" + strings.ReplaceAll(a, "'", `'\''`) + "'"
		}
		quoted = append(quoted, a)
	}
	if !hasResume {
		quoted = append(quoted, "-resume")
	}
	return strings.Join(quoted, " ")
}
