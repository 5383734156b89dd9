package vet

import "facile/internal/lang/source"

// Summary condenses a vet run for job records and preflight gates.
type Summary struct {
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
	// ErrorFindings holds the rendered error-severity findings (capped),
	// so a rejected submission explains itself.
	ErrorFindings []string `json:"error_findings,omitempty"`
	// Fusion carries the unit's static fusion facts (predicted coverage,
	// barriers) when the unit compiled — the same blocks the replay
	// engine may fuse.
	Fusion *FusionSummary `json:"fusion,omitempty"`
}

// OK reports whether the program passes preflight (no error findings).
func (s Summary) OK() bool { return s.Errors == 0 }

// Preflight vets a single named source (as submitted to fsim/fsimd) and
// returns the summary gates act on.
func Preflight(name, src string) Summary {
	fs := source.NewSet()
	fs.Add(name, src)
	return Summarize(RunSet(fs, Options{}))
}

// PreflightFiles vets an already-assembled file set.
func PreflightFiles(fs *source.Set) Summary { return Summarize(RunSet(fs, Options{})) }

// Summarize condenses a result.
func Summarize(r *Result) Summary {
	s := Summary{
		Errors:   r.Count(SevError),
		Warnings: r.Count(SevWarning),
		Infos:    r.Count(SevInfo),
	}
	if len(r.Fusion) > 0 {
		f := r.Fusion[0]
		s.Fusion = &f
	}
	const maxShown = 8
	for _, d := range r.Diags {
		if d.Severity != SevError {
			continue
		}
		if len(s.ErrorFindings) == maxShown {
			s.ErrorFindings = append(s.ErrorFindings, "...")
			break
		}
		s.ErrorFindings = append(s.ErrorFindings, d.Pos.String()+": "+d.Code+": "+d.Message)
	}
	return s
}
