package sweep

import (
	"errors"
	"fmt"
	"io"

	"github.com/manetlab/ldr/internal/resilience"
)

// ReportFailures is the commands' common exit path for a degraded
// keep-going sweep: when err wraps a Failures set it summarizes the
// quarantined cells on w and, given a journal, durably writes the
// failure manifest next to the records. Any other error (including nil)
// passes through untouched, so callers can end with
//
//	return sweep.ReportFailures(os.Stderr, "ldrbench", j, "chaos", prog.Total(), err)
//
// and keep fail-fast behavior identical.
func ReportFailures(w io.Writer, prog string, j *resilience.Journal, scope string, cells int, err error) error {
	var fs Failures
	if err == nil || !errors.As(err, &fs) {
		return err
	}
	fmt.Fprintf(w, "%s: %d cell(s) quarantined; the rendered output covers the cells that completed\n", prog, len(fs))
	const maxListed = 8
	for i, ce := range fs {
		if i == maxListed {
			fmt.Fprintf(w, "%s:   … and %d more (see the manifest)\n", prog, len(fs)-maxListed)
			break
		}
		fmt.Fprintf(w, "%s:   cell %d [%s]: %v\n", prog, ce.Index, resilience.Kind(ce.Err), ce.Err)
		if ce.Repro != "" {
			fmt.Fprintf(w, "%s:   cell %d reproducer: %s\n", prog, ce.Index, ce.Repro)
		}
	}
	if j != nil {
		if path, werr := resilience.WriteManifest(j.Dir(), fs.Manifest(scope, cells)); werr != nil {
			fmt.Fprintf(w, "%s: writing failure manifest: %v\n", prog, werr)
		} else {
			fmt.Fprintf(w, "%s: failure manifest: %s\n", prog, path)
		}
	}
	return err
}
