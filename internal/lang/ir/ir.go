// Package ir defines the intermediate representation the Facile compiler
// lowers programs into, and which the fast-forwarding runtime interprets.
//
// The IR is a control-flow graph of basic blocks over virtual registers.
// After binding-time analysis every instruction carries a binding time:
// run-time static instructions are executed only by the slow simulator
// (and skipped entirely during replay); dynamic instructions form the
// actions stored in the specialized action cache. For each block the
// compiler precomputes the block's dynamic segment — the dynamic
// instructions with each operand classified as a dynamic virtual register,
// a run-time static placeholder (recorded in the cache per execution), or
// a constant — which is exactly what the fast simulator executes.
package ir

import (
	"fmt"
	"strings"

	"facile/internal/lang/token"
)

// Op is an IR opcode.
type Op uint8

// IR opcodes.
const (
	Const   Op = iota // d = Imm
	Mov               // d = a
	Bin               // d = a <Sub> b
	Un                // d = <Sub> a
	Ext               // d = sign/zero extend a to Imm bits (Sub: 0 zext, 1 sext)
	LoadG             // d = globals[Imm]
	StoreG            // globals[Imm] = a
	LoadA             // d = arrays[Imm][a]
	StoreA            // arrays[Imm][a] = b
	Fetch             // d = target text word at address a (rt-static text)
	QOp               // queue operation Sub on queue QID; d = result
	CallExt           // d = externs[Imm](Args...)
	SetArg            // next-step argument Imm = a (queue params: no-op marker)
	Pin               // d = a, pinning a dynamic value rt-static via a dynamic result test
	// terminators
	Jmp // goto Succ[0]
	Br  // if a != 0 goto Succ[0] else Succ[1]
	Ret
)

// Queue operation sub-codes (Sub field of QOp).
const (
	QSize uint8 = iota
	QPush       // Args = one value per tuple field
	QPop
	QGet   // a = entry index, b = field index
	QSet   // a = entry index, b = field index, Args[0] = value
	QFront // a = field index
	QFull
	QClear
)

// Binding times.
const (
	BTStatic   byte = 0 // run-time static
	BTDynamic  byte = 1
	BTStaticWT byte = 2 // rt-static global store, written through to the
	// runtime global store during replay (the paper's "rt-static value
	// becomes dynamic" materialization)
)

// Inst is one IR instruction.
type Inst struct {
	Op   Op
	Sub  uint8     // Bin: token.Kind operator; Un: operator; Ext: 1=sext; QOp: QOp code
	D    int32     // destination vreg, -1 if none
	A, B int32     // operand vregs, -1 if unused
	Imm  int64     // constant / global index / array index / extern index / arg index / ext bits
	QID  int32     // QOp: >= 0 global queue index; < 0: main queue param ^QID
	Args []int32   // QPush values / CallExt arguments
	BT   byte      // binding time, filled by BTA
	Pos  token.Pos // source position for diagnostics
}

// Block is a basic block.
type Block struct {
	ID    int
	Insts []Inst
	Term  Inst
	Succ  [2]int // Jmp: [0]; Br: [0] then-target, [1] else-target

	// Filled by binding-time analysis / action extraction:
	HasDyn  bool      // block contains dynamic instructions or a dynamic term
	Dyn     []DynInst // the dynamic segment replayed by the fast simulator
	DynTerm DynTermKind
	TermSrc Src   // dyn Br: condition; dyn SetArg/Pin term: value
	ArgIdx  int   // dyn SetArg term: which main argument
	PinDst  int32 // dyn Pin term: rt-static destination vreg
	NPh     int   // number of placeholder values recorded per execution
}

// Terminated reports whether the block already has a terminator.
func (b *Block) Terminated() bool {
	switch b.Term.Op {
	case Jmp, Br, Ret:
		return true
	}
	return false
}

// DynTermKind classifies how a block's dynamic segment ends.
type DynTermKind uint8

// Dynamic terminator kinds.
const (
	DTNone   DynTermKind = iota // rt-static control flow follows
	DTBr                        // dynamic-result test on a branch condition
	DTSetArg                    // dynamic-result test pinning a next-step argument
	DTPin                       // dynamic-result test pinning a value (?pin)
	DTRet                       // step ends (next key is assembled)
)

// SrcKind classifies a dynamic instruction operand.
type SrcKind uint8

// Operand classes.
const (
	SrcNone  SrcKind = iota
	SrcVReg          // dynamic virtual register
	SrcPh            // run-time static placeholder, recorded per execution
	SrcConst         // compile-time constant
)

// Src is a classified operand of a dynamic instruction.
type Src struct {
	Kind  SrcKind
	VReg  int32
	Const int64
}

// DynInst is one dynamic instruction as replayed by the fast simulator.
type DynInst struct {
	Op   Op
	Sub  uint8
	D    int32
	A, B Src
	Imm  int64
	QID  int32
	Args []Src
	Pos  token.Pos // source position, for replay-plan diagnostics
}

// GlobalDecl describes a global scalar (or stream).
type GlobalDecl struct {
	Name string
	Init int64
}

// ArrayDecl describes a global array.
type ArrayDecl struct {
	Name string
	Len  int
	Init int64
}

// QueueDecl describes a queue (global, or a main parameter).
type QueueDecl struct {
	Name  string
	Cap   int
	Width int
}

// ParamDecl describes one main parameter.
type ParamDecl struct {
	Name    string
	IsQueue bool
	Queue   QueueDecl // when IsQueue
}

// VRegName records the source-level binding a virtual register was
// created for, so diagnostics can speak in the programmer's vocabulary.
// Inlining duplicates bindings (fresh vregs per call site), so several
// vregs may share one (Name, Pos) pair.
type VRegName struct {
	Name string
	Kind string // "param", "local", or "field"
	Pos  token.Pos
}

// Program is a compiled Facile program.
type Program struct {
	Blocks  []*Block
	Entry   int
	NumVReg int

	Globals []GlobalDecl
	Arrays  []ArrayDecl
	QueuesG []QueueDecl
	Externs []string
	Params  []ParamDecl

	// VRegNames maps vregs to the source bindings they were created for
	// (params, locals, decoded fields). Compiler temporaries are absent.
	VRegNames map[int32]VRegName

	// Replay is the fusion/replay plan (see replay.go), attached by the
	// compiler after action extraction. Nil for hand-constructed IR.
	Replay *ReplayPlan

	// Stats from compilation, reported by the driver.
	NumStatic  int // instructions classified run-time static
	NumDynamic int
}

var binNames = map[uint8]string{
	uint8(token.PLUS): "+", uint8(token.MINUS): "-", uint8(token.STAR): "*",
	uint8(token.SLASH): "/", uint8(token.PERCENT): "%",
	uint8(token.AMP): "&", uint8(token.PIPE): "|", uint8(token.CARET): "^",
	uint8(token.SHL): "<<", uint8(token.SHR): ">>",
	uint8(token.EQ): "==", uint8(token.NE): "!=",
	uint8(token.LT): "<", uint8(token.LE): "<=",
	uint8(token.GT): ">", uint8(token.GE): ">=",
}

// String renders an instruction for dumps and tests.
func (in Inst) String() string {
	bt := "S"
	if in.BT == BTDynamic {
		bt = "D"
	}
	switch in.Op {
	case Const:
		return fmt.Sprintf("[%s] v%d = %d", bt, in.D, in.Imm)
	case Mov:
		return fmt.Sprintf("[%s] v%d = v%d", bt, in.D, in.A)
	case Bin:
		return fmt.Sprintf("[%s] v%d = v%d %s v%d", bt, in.D, in.A, binNames[in.Sub], in.B)
	case Un:
		return fmt.Sprintf("[%s] v%d = un%d v%d", bt, in.D, in.Sub, in.A)
	case Ext:
		k := "zext"
		if in.Sub == 1 {
			k = "sext"
		}
		return fmt.Sprintf("[%s] v%d = %s(v%d, %d)", bt, in.D, k, in.A, in.Imm)
	case LoadG:
		return fmt.Sprintf("[%s] v%d = g%d", bt, in.D, in.Imm)
	case StoreG:
		return fmt.Sprintf("[%s] g%d = v%d", bt, in.Imm, in.A)
	case LoadA:
		return fmt.Sprintf("[%s] v%d = arr%d[v%d]", bt, in.D, in.Imm, in.A)
	case StoreA:
		return fmt.Sprintf("[%s] arr%d[v%d] = v%d", bt, in.Imm, in.A, in.B)
	case Fetch:
		return fmt.Sprintf("[%s] v%d = fetch(v%d)", bt, in.D, in.A)
	case QOp:
		return fmt.Sprintf("[%s] v%d = q%d.op%d(v%d, v%d, %v)", bt, in.D, in.QID, in.Sub, in.A, in.B, in.Args)
	case CallExt:
		return fmt.Sprintf("[%s] v%d = ext%d(%v)", bt, in.D, in.Imm, in.Args)
	case SetArg:
		return fmt.Sprintf("[%s] arg%d = v%d", bt, in.Imm, in.A)
	case Pin:
		return fmt.Sprintf("[%s] v%d = pin(v%d)", bt, in.D, in.A)
	case Jmp:
		return fmt.Sprintf("[%s] jmp", bt)
	case Br:
		return fmt.Sprintf("[%s] br v%d", bt, in.A)
	case Ret:
		return fmt.Sprintf("[%s] ret", bt)
	}
	return fmt.Sprintf("[%s] op%d", bt, in.Op)
}

// Dump renders the whole program for debugging.
func (p *Program) Dump() string {
	var b strings.Builder
	for _, blk := range p.Blocks {
		fmt.Fprintf(&b, "b%d:", blk.ID)
		if blk.HasDyn {
			fmt.Fprintf(&b, " (dyn, %d ph)", blk.NPh)
		}
		b.WriteString("\n")
		for _, in := range blk.Insts {
			fmt.Fprintf(&b, "  %s\n", in)
		}
		fmt.Fprintf(&b, "  %s -> %v\n", blk.Term, blk.Succ)
	}
	return b.String()
}
