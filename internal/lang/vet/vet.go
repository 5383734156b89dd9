// Package vet is a static-analysis suite for Facile programs.
//
// It reuses the whole compiler pipeline (lexer → parser → types → lower →
// binding-time analysis) and surfaces the compiler's internal knowledge —
// binding-time provenance, write-through costs, memoization-key shape,
// encoding overlap — as stable, positioned diagnostics with text, JSON,
// and SARIF renderings. The analyzer registry follows the spirit of
// go/analysis: each analyzer declares its codes and runs over a Pass that
// exposes every pipeline artifact.
package vet

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"facile/internal/lang/ast"
	"facile/internal/lang/compile"
	"facile/internal/lang/ir"
	"facile/internal/lang/lexer"
	"facile/internal/lang/parser"
	"facile/internal/lang/source"
	"facile/internal/lang/token"
	"facile/internal/lang/types"
)

// Severity ranks a diagnostic.
type Severity int

// Severities, least to most severe.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "info"
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"error"`:
		*s = SevError
	case `"warning"`:
		*s = SevWarning
	case `"info"`:
		*s = SevInfo
	default:
		return fmt.Errorf("unknown severity %s", b)
	}
	return nil
}

// Diagnostic is one finding: a stable code, a severity, a resolved source
// position, and a message (plus a suggested fix when one is cheap to
// state). Unit names the main file of the compilation unit the finding
// came from, and is set only when several units were analyzed and the
// finding is specific to one of them.
type Diagnostic struct {
	Code     string          `json:"code"`
	Severity Severity        `json:"severity"`
	Analyzer string          `json:"analyzer"`
	Pos      source.Position `json:"pos"`
	Message  string          `json:"message"`
	Fix      string          `json:"fix,omitempty"`
	Unit     string          `json:"unit,omitempty"`
}

// CodeDoc documents one diagnostic code an analyzer can emit.
type CodeDoc struct {
	Code     string
	Severity Severity
	Doc      string
}

// Analyzer is one registered analysis.
type Analyzer struct {
	Name  string
	Doc   string
	Codes []CodeDoc
	Run   func(*Pass)
}

// Pass is everything one compilation unit exposes to analyzers. Fields
// are nil when the pipeline failed before producing them; analyzers must
// check for what they need.
type Pass struct {
	FS      *source.Set
	AST     *ast.Program   // parsed unit
	Checked *types.Checked // nil if type checking failed

	// IR/Facts: the default compile (optimized, no LiftLiveOnly) — what
	// faciled and the simulators actually run. Present even when compile
	// failed with a queue violation (the program is still fully analyzed).
	IR    *ir.Program
	Facts *compile.Facts

	// RawIR/RawFacts: an unoptimized compile, for provenance chains and
	// unreachable-code analysis (positions survive, constant branches are
	// not folded away).
	RawIR    *ir.Program
	RawFacts *compile.Facts

	CompileErr error
	Opt        Options

	report func(Diagnostic)
}

// Position resolves a blob position against the unit's file set.
func (p *Pass) Position(pos token.Pos) source.Position { return p.FS.Resolve(pos) }

// Report emits a diagnostic, honoring the enable/disable and severity
// filters.
func (p *Pass) Report(d Diagnostic) {
	if !p.Opt.codeEnabled(d.Code, d.Analyzer) || d.Severity < p.Opt.MinSeverity {
		return
	}
	p.report(d)
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(analyzer, code string, sev Severity, pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Code: code, Severity: sev, Analyzer: analyzer,
		Pos: p.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// ReportFix is Reportf with a suggested fix attached.
func (p *Pass) ReportFix(analyzer, code string, sev Severity, pos token.Pos, fix, format string, args ...any) {
	p.Report(Diagnostic{Code: code, Severity: sev, Analyzer: analyzer,
		Pos: p.Position(pos), Message: fmt.Sprintf(format, args...), Fix: fix})
}

// Options configure a vet run.
type Options struct {
	// Enable restricts the run to codes/analyzers matching these tokens
	// (exact analyzer name, exact code, or code prefix like "FV01").
	// Empty means everything.
	Enable []string
	// Disable suppresses matching codes/analyzers; it wins over Enable.
	Disable []string
	// MinSeverity drops findings below this severity.
	MinSeverity Severity
	// Explain turns on the binding-time provenance report (FV0101): one
	// info per dynamic named binding with its why-dynamic chain — and the
	// per-unit fusion coverage report (FV0702 info).
	Explain bool
	// FusionCoverageMin is the FV0702 warning threshold (fraction of
	// dynamic ops in fusable blocks). Zero means DefaultFusionCoverageMin.
	FusionCoverageMin float64
}

func matchToken(tok, code, analyzer string) bool {
	if tok == analyzer {
		return true
	}
	return strings.HasPrefix(code, tok) && strings.HasPrefix(tok, "FV")
}

func (o *Options) codeEnabled(code, analyzer string) bool {
	for _, t := range o.Disable {
		if matchToken(t, code, analyzer) {
			return false
		}
	}
	if len(o.Enable) == 0 {
		return true
	}
	for _, t := range o.Enable {
		if matchToken(t, code, analyzer) {
			return true
		}
	}
	return false
}

// FusionSummary condenses one unit's replay plan: the static fusion facts
// the replay engine's fused runs achieve, exported so preflight consumers
// and job records can report predicted coverage without recompiling.
type FusionSummary struct {
	Unit          string  `json:"unit,omitempty"`
	DynBlocks     int     `json:"dyn_blocks"`     // blocks recorded as actions
	FusableBlocks int     `json:"fusable_blocks"` // pure-flow blocks
	DynOps        int     `json:"dyn_ops"`
	FusableOps    int     `json:"fusable_ops"`
	Coverage      float64 `json:"coverage"` // FusableOps/DynOps (0..1)
	MaxRun        int     `json:"max_run"`  // longest provable pure-flow run
	Barriers      int     `json:"barriers"` // fork (dynamic-result) blocks
}

// Result is the outcome of a vet run.
type Result struct {
	// Units lists the file names of each compilation unit analyzed.
	Units [][]string `json:"units"`
	// Diags is sorted by position, then code, then message.
	Diags []Diagnostic `json:"diagnostics"`
	// Fusion holds each successfully compiled unit's static fusion facts,
	// in unit order.
	Fusion []FusionSummary `json:"fusion,omitempty"`
}

// Count returns the number of findings at exactly severity sev.
func (r *Result) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any error-severity finding exists.
func (r *Result) HasErrors() bool { return r.Count(SevError) > 0 }

// All returns the analyzer registry in its stable order.
func All() []*Analyzer {
	return []*Analyzer{
		bindtimeAnalyzer,
		writethroughAnalyzer,
		memokeyAnalyzer,
		encodingAnalyzer,
		unusedAnalyzer,
		staticctxAnalyzer,
		fusionAnalyzer,
	}
}

// PipelineCodes documents the diagnostics the driver itself emits when
// the compilation pipeline fails before any analyzer can run. They are
// part of the stable code space like analyzer codes (listed by -list,
// validated by the lintfv meta-check).
func PipelineCodes() []CodeDoc {
	return []CodeDoc{
		{"FV0001", SevError, "parse error: the unit could not be parsed"},
		{"FV0002", SevError, "type error: the unit failed type checking"},
		{"FV0003", SevError, "compile error: lowering or binding-time analysis failed"},
	}
}

// ErrorPosition extracts the source position and bare message from any
// compilation-pipeline error (lexer, parser, types, or compile). Drivers
// resolve the position through their source.Set to report multi-file
// file:line:col locations. A zero position (Line 0) means the error
// carries no location.
func ErrorPosition(err error) (token.Pos, string) { return splitErr(err) }

// splitErr extracts the position and bare message from a pipeline error.
func splitErr(err error) (token.Pos, string) {
	var le *lexer.Error
	var pe *parser.Error
	var te *types.Error
	var ce *compile.Error
	switch {
	case errors.As(err, &le):
		return le.Pos, le.Msg
	case errors.As(err, &pe):
		return pe.Pos, pe.Msg
	case errors.As(err, &te):
		return te.Pos, te.Msg
	case errors.As(err, &ce):
		return ce.Pos, ce.Msg
	}
	return token.Pos{}, err.Error()
}

// RunSet analyzes one compilation unit (an ordered file set forming one
// program).
func RunSet(fs *source.Set, opt Options) *Result {
	r := &Result{Units: [][]string{fs.Files()}}
	pass := &Pass{FS: fs, Opt: opt, report: func(d Diagnostic) { r.Diags = append(r.Diags, d) }}

	prog, err := parser.Parse(fs.Cat())
	if err != nil {
		pos, msg := splitErr(err)
		pass.Reportf("pipeline", "FV0001", SevError, pos, "parse error: %s", msg)
		sortDiags(r.Diags)
		return r
	}
	pass.AST = prog

	ck, err := types.Check(prog)
	if err != nil {
		pos, msg := splitErr(err)
		pass.Reportf("pipeline", "FV0002", SevError, pos, "type error: %s", msg)
	} else {
		pass.Checked = ck
		p0, f0, cerr := compile.CompileWithFacts(ck, compile.Options{})
		pass.CompileErr = cerr
		if cerr == nil || len(f0.QueueViolations) > 0 {
			// Queue violations are reported (with every site) by FV0601;
			// the program is still fully analyzed.
			pass.IR, pass.Facts = p0, f0
		} else {
			pos, msg := splitErr(cerr)
			pass.Reportf("pipeline", "FV0003", SevError, pos, "compile error: %s", msg)
		}
		p1, f1, rerr := compile.CompileWithFacts(ck, compile.Options{NoOptimize: true})
		if rerr == nil || len(f1.QueueViolations) > 0 {
			pass.RawIR, pass.RawFacts = p1, f1
		}
	}

	for _, a := range All() {
		a.Run(pass)
	}
	if pass.IR != nil {
		if fs := fusionSummary(pass.IR); fs != nil {
			r.Fusion = append(r.Fusion, *fs)
		}
	}
	sortDiags(r.Diags)
	return r
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Message != b.Message {
			return a.Message < b.Message
		}
		return a.Unit < b.Unit
	})
}

// RunFiles analyzes .fac files from disk. Files are partitioned into
// compilation units: every file declaring `fun main` anchors a unit made
// of itself plus all main-less (library) files, preserving command-line
// order — so `fvet isa.fac stepA.fac stepB.fac` analyzes isa+stepA and
// isa+stepB. With no main anywhere, all files form one unit. Findings
// repeated identically across units are merged; unit-specific findings
// are tagged with the unit's main file.
func RunFiles(paths []string, opt Options) (*Result, error) {
	srcs := make([]string, len(paths))
	isMain := make([]bool, len(paths))
	anyMain := false
	for i, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		srcs[i] = string(b)
		if prog, err := parser.Parse(srcs[i] + "\n"); err == nil && prog.Fun("main") != nil {
			isMain[i] = true
			anyMain = true
		}
	}

	var units [][]int // file indices per unit
	if !anyMain {
		all := make([]int, len(paths))
		for i := range paths {
			all[i] = i
		}
		units = [][]int{all}
	} else {
		for m := range paths {
			if !isMain[m] {
				continue
			}
			var u []int
			for i := range paths {
				if i == m || !isMain[i] {
					u = append(u, i)
				}
			}
			units = append(units, u)
		}
	}

	merged := &Result{}
	type key struct {
		code, msg string
		pos       source.Position
	}
	seen := map[key]int{} // -> index into merged.Diags
	for _, u := range units {
		fs := source.NewSet()
		unitName := ""
		for _, i := range u {
			fs.Add(paths[i], srcs[i])
			if isMain[i] {
				unitName = paths[i]
			}
		}
		res := RunSet(fs, opt)
		merged.Units = append(merged.Units, fs.Files())
		for _, f := range res.Fusion {
			f.Unit = unitName
			merged.Fusion = append(merged.Fusion, f)
		}
		for _, d := range res.Diags {
			if len(units) > 1 {
				d.Unit = unitName
			}
			k := key{d.Code, d.Message, d.Pos}
			if at, dup := seen[k]; dup {
				// The same finding in several units is universal, not
				// unit-specific.
				merged.Diags[at].Unit = ""
				continue
			}
			seen[k] = len(merged.Diags)
			merged.Diags = append(merged.Diags, d)
		}
	}
	sortDiags(merged.Diags)
	return merged, nil
}
