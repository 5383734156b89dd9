package fastsim

import (
	"facile/internal/isa"
	"facile/internal/lang/ir"
)

// This file is the compiled replay substrate for the hand-coded simulator:
// the action graph's straight-line stretches are threaded into closure
// arrays ("superinstructions") so a hot chain replays as one fused call
// sequence instead of one interpreter iteration — kind switch, field
// loads, flag tests — per action.
//
// Each aExec closure is specialized to its instruction: the interpreter's
// dispatch tower (dynExec's class switch, Apply's Classify and per-opcode
// switches, ALUResult's operand-format test) is resolved once at build
// time, next-PC and branch-target constants are folded, and the per-action
// bookkeeping (cycle delta, sink-op count, committed instructions) is
// summed over the whole run and charged once per dispatch.
//
// Only pure-flow actions fuse: aExec, aUpdate, and aShift advance along
// a.Next unconditionally and can never miss. Dynamic-result actions
// (aNextPC, aICache, aDCache, aPredict, aHalted) and step boundaries (aEnd)
// terminate a run and are handled by the interpreted loop, so the
// mid-step-miss and fault-degradation protocol is untouched by fusion.
// Nothing inside a run reads s.cycle or s.ops (only fork actions and step
// boundaries do, and those always sit between runs), so the batched
// charging is observationally identical to the interpreter's per-action
// increments.
//
// Compiled form is derived state, not memoized data: it is attached to hot
// chains lazily during replay, never serialized (snapshot and the warm
// codec enumerate action fields explicitly), rebuilt after warm-cache
// adoption, and discarded whenever the owning entry's CVer moves (fault
// injection, invalidation) so a mutated chain is re-validated before its
// next replay.

// actFn replays one action with its kind, operands, and flags resolved at
// compile time.
type actFn func(s *Sim)

// maxActFuseLen bounds one superinstruction's action count. Longer
// stretches split into consecutive runs; a cycle in a corrupted graph
// therefore still advances the acts counter toward the replay watchdog
// instead of hanging the builder. Shared with the Facile engine and the
// compiler's static replay planner.
const maxActFuseLen = ir.MaxFuseLen

// minActFuseLen is the shortest run worth fusing: below it the fused
// dispatch (version check, closure calls) costs more than the interpreter
// iterations it replaces, so the builder emits an empty run and the
// actions replay interpreted.
const minActFuseLen = ir.MinFuseLen

// fusedActs is a superinstruction: a compiled straight-line run of
// pure-flow actions. end is the first action after the run (a
// dynamic-result action, aEnd, an unknown kind, or nil — a severed chain),
// handed back to the interpreted loop.
type fusedActs struct {
	fns []actFn
	end *action
	n   uint64 // actions covered, for the watchdog's acts accounting
	cyc uint64 // summed cycle deltas, charged once per dispatch
	ops uint64 // summed sink-op count (the recovery cursor's units)
	ins uint64 // summed aShift commit counts, credited to fastInsts
}

// actClass is the static fusion/replay classification of the hand-coded
// engine's action-kind taxonomy — the analogue of the per-block
// ir.ReplayPlan the Facile compiler proves for described simulators.
// Because the taxonomy is fixed at compile time, the whole classification
// is a declared table rather than a per-action scan: pure-flow kinds
// advance along a.Next unconditionally and may join a superinstruction;
// fork kinds carry a dynamic result and always break a run; aEnd is the
// step boundary where the next memoization key is assembled.
var actClass = [aEnd + 1]ir.ReplayClass{
	aExec:    ir.ReplayPure,
	aUpdate:  ir.ReplayPure,
	aShift:   ir.ReplayPure,
	aICache:  ir.ReplayFork,
	aDCache:  ir.ReplayFork,
	aPredict: ir.ReplayFork,
	aNextPC:  ir.ReplayFork,
	aHalted:  ir.ReplayFork,
	aEnd:     ir.ReplayRet,
}

// fusable reports whether kind is a pure-flow action a superinstruction may
// contain. Unknown kinds (corrupt or future records) never fuse and fall to
// the interpreted loop's fault handling.
func fusable(kind uint8) bool {
	return int(kind) < len(actClass) && actClass[kind] == ir.ReplayPure
}

// buildFused threads the superinstruction starting at a. Each closure
// replicates the interpreted case's data effects exactly — including the
// recovery-path logging the degradation protocol depends on — while the
// counter work is folded into the run totals.
func (s *Sim) buildFused(a *action) *fusedActs {
	fr := &fusedActs{}
	for a != nil && fusable(a.kind) && len(fr.fns) < maxActFuseLen {
		fr.fns = append(fr.fns, compileAction(a))
		fr.n++
		fr.cyc += uint64(a.dcyc)
		fr.ops++
		if a.kind == aShift {
			fr.ins += uint64(a.slot)
		}
		a = a.Next
	}
	fr.end = a
	if fr.n < minActFuseLen {
		return &fusedActs{} // too short to amortize: replay interpreted
	}
	return fr
}

func compileAction(a *action) actFn {
	switch a.kind {
	case aExec:
		return compileExec(a)
	case aUpdate:
		in, pc, slot, mispred := a.in, a.pc, int(a.slot), a.flags&flagMispred != 0
		return func(s *Sim) {
			s.eng.pred.Update(in, pc, s.slotNPCAt(slot), mispred)
		}
	case aShift:
		k := int(a.slot)
		return func(s *Sim) {
			s.shiftSlots(k)
		}
	}
	// Unreachable: buildFused only compiles fusable kinds.
	return func(*Sim) {}
}

// operandB resolves a two-form operand (immediate or register) into a
// constant-plus-register pair. R0 is hardwired zero (every write goes
// through SetReg, which drops writes to it), so `c + st.R[r]` evaluates
// both forms without a runtime format test: the dead term is zero.
func operandB(c int64, reg uint8, useReg bool) (int64, uint8) {
	if useReg {
		return 0, reg
	}
	return c, 0
}

// compileExec specializes one aExec to its instruction. Every closure ends
// with the same observable effects as the interpreted case: the slot write
// (effective address and resolved next PC) and the recovery-path log entry
// for values the mid-step-miss protocol consumes.
func compileExec(a *action) actFn {
	in, pc, cls, slot := a.in, a.pc, a.cls, int(a.slot)
	rd, rs1, rs2 := in.Rd, in.Rs1, in.Rs2
	npcC := pc + 4

	switch cls {
	case isa.ClassLoad:
		offC, offR := operandB(in.Imm, rs2, !in.HasImm)
		switch in.Op {
		case isa.OpLdb:
			return func(s *Sim) {
				st := s.eng.st
				addr := uint64(st.R[rs1] + offC + st.R[offR])
				st.SetReg(rd, int64(int8(st.Mem.Read8(addr))))
				s.setSlot(slot, addr, npcC)
				s.path = append(s.path, addr)
			}
		case isa.OpLdw:
			return func(s *Sim) {
				st := s.eng.st
				addr := uint64(st.R[rs1] + offC + st.R[offR])
				st.SetReg(rd, int64(int32(st.Mem.Read32(addr))))
				s.setSlot(slot, addr, npcC)
				s.path = append(s.path, addr)
			}
		case isa.OpLdd:
			return func(s *Sim) {
				st := s.eng.st
				addr := uint64(st.R[rs1] + offC + st.R[offR])
				st.SetReg(rd, int64(st.Mem.Read64(addr)))
				s.setSlot(slot, addr, npcC)
				s.path = append(s.path, addr)
			}
		}

	case isa.ClassStore:
		offC, offR := operandB(in.Imm, rs2, !in.HasImm)
		switch in.Op {
		case isa.OpStb:
			return func(s *Sim) {
				st := s.eng.st
				addr := uint64(st.R[rs1] + offC + st.R[offR])
				st.Mem.Write8(addr, byte(st.R[rd]))
				s.setSlot(slot, addr, npcC)
				s.path = append(s.path, addr)
			}
		case isa.OpStw:
			return func(s *Sim) {
				st := s.eng.st
				addr := uint64(st.R[rs1] + offC + st.R[offR])
				st.Mem.Write32(addr, uint32(st.R[rd]))
				s.setSlot(slot, addr, npcC)
				s.path = append(s.path, addr)
			}
		case isa.OpStd:
			return func(s *Sim) {
				st := s.eng.st
				addr := uint64(st.R[rs1] + offC + st.R[offR])
				st.Mem.Write64(addr, uint64(st.R[rd]))
				s.setSlot(slot, addr, npcC)
				s.path = append(s.path, addr)
			}
		}

	case isa.ClassBranch:
		tC := isa.BranchTarget(in, pc)
		switch in.Op {
		case isa.OpBeq:
			return func(s *Sim) {
				st := s.eng.st
				npc := npcC
				if st.R[rs1] == st.R[rs2] {
					npc = tC
				}
				s.setSlot(slot, 0, npc)
				s.path = append(s.path, npc)
			}
		case isa.OpBne:
			return func(s *Sim) {
				st := s.eng.st
				npc := npcC
				if st.R[rs1] != st.R[rs2] {
					npc = tC
				}
				s.setSlot(slot, 0, npc)
				s.path = append(s.path, npc)
			}
		case isa.OpBlt:
			return func(s *Sim) {
				st := s.eng.st
				npc := npcC
				if st.R[rs1] < st.R[rs2] {
					npc = tC
				}
				s.setSlot(slot, 0, npc)
				s.path = append(s.path, npc)
			}
		case isa.OpBge:
			return func(s *Sim) {
				st := s.eng.st
				npc := npcC
				if st.R[rs1] >= st.R[rs2] {
					npc = tC
				}
				s.setSlot(slot, 0, npc)
				s.path = append(s.path, npc)
			}
		case isa.OpBltu:
			return func(s *Sim) {
				st := s.eng.st
				npc := npcC
				if uint64(st.R[rs1]) < uint64(st.R[rs2]) {
					npc = tC
				}
				s.setSlot(slot, 0, npc)
				s.path = append(s.path, npc)
			}
		case isa.OpBgeu:
			return func(s *Sim) {
				st := s.eng.st
				npc := npcC
				if uint64(st.R[rs1]) >= uint64(st.R[rs2]) {
					npc = tC
				}
				s.setSlot(slot, 0, npc)
				s.path = append(s.path, npc)
			}
		}

	case isa.ClassJump:
		switch in.Op {
		case isa.OpJ:
			tC := isa.BranchTarget(in, pc)
			return func(s *Sim) {
				s.setSlot(slot, 0, tC)
			}
		case isa.OpJal:
			tC := isa.BranchTarget(in, pc)
			link := int64(pc + 4)
			return func(s *Sim) {
				s.eng.st.SetReg(isa.RegRA, link)
				s.setSlot(slot, 0, tC)
			}
		case isa.OpJr:
			offC, offR := operandB(in.Imm, rs2, !in.HasImm)
			return func(s *Sim) {
				st := s.eng.st
				npc := uint64(st.R[rs1] + offC + st.R[offR])
				s.setSlot(slot, 0, npc)
				s.path = append(s.path, npc)
			}
		case isa.OpJalr:
			offC, offR := operandB(in.Imm, rs2, !in.HasImm)
			link := int64(pc + 4)
			return func(s *Sim) {
				st := s.eng.st
				// Resolve the target before the link write: jalr through the
				// link register reads the pre-write value.
				npc := uint64(st.R[rs1] + offC + st.R[offR])
				st.SetReg(rd, link)
				s.setSlot(slot, 0, npc)
				s.path = append(s.path, npc)
			}
		}

	case isa.ClassIntALU, isa.ClassIntMul:
		if fn := compileALU(in, pc, slot, npcC); fn != nil {
			return fn
		}
	}

	// Generic body for everything not specialized above (FP, Sys, Nop,
	// unknown): the exact interpreted aExec case minus the batched counters.
	logAddr := cls == isa.ClassLoad || cls == isa.ClassStore
	logNPC := needNextPCTest(in, cls)
	return func(s *Sim) {
		addr, npc := dynExec(s.eng.st, in, pc, cls)
		s.setSlot(slot, addr, npc)
		switch {
		case logAddr:
			s.path = append(s.path, addr)
		case logNPC:
			s.path = append(s.path, npc)
		}
	}
}

// compileALU specializes a register-writing integer instruction, or returns
// nil to fall back to the generic body. ALU results are pure, so a write to
// the hardwired-zero R0 compiles to just the slot update.
func compileALU(in isa.Inst, pc uint64, slot int, npcC uint64) actFn {
	rd, rs1 := in.Rd, in.Rs1
	bC, bR := operandB(in.Imm, in.Rs2, !in.HasImm && isa.OpcodeFormat(in.Op) == isa.FmtRI)
	if rd == 0 {
		switch in.Op {
		case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSll,
			isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltu, isa.OpSethi,
			isa.OpMul, isa.OpDiv, isa.OpRem:
			return func(s *Sim) {
				s.setSlot(slot, 0, npcC)
			}
		}
		return nil
	}
	switch in.Op {
	case isa.OpAdd:
		return func(s *Sim) {
			st := s.eng.st
			st.R[rd] = st.R[rs1] + bC + st.R[bR]
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpSub:
		return func(s *Sim) {
			st := s.eng.st
			st.R[rd] = st.R[rs1] - (bC + st.R[bR])
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpAnd:
		return func(s *Sim) {
			st := s.eng.st
			st.R[rd] = st.R[rs1] & (bC + st.R[bR])
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpOr:
		return func(s *Sim) {
			st := s.eng.st
			st.R[rd] = st.R[rs1] | (bC + st.R[bR])
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpXor:
		return func(s *Sim) {
			st := s.eng.st
			st.R[rd] = st.R[rs1] ^ (bC + st.R[bR])
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpSll:
		return func(s *Sim) {
			st := s.eng.st
			st.R[rd] = st.R[rs1] << (uint64(bC+st.R[bR]) & 63)
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpSrl:
		return func(s *Sim) {
			st := s.eng.st
			st.R[rd] = int64(uint64(st.R[rs1]) >> (uint64(bC+st.R[bR]) & 63))
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpSra:
		return func(s *Sim) {
			st := s.eng.st
			st.R[rd] = st.R[rs1] >> (uint64(bC+st.R[bR]) & 63)
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpSlt:
		return func(s *Sim) {
			st := s.eng.st
			var v int64
			if st.R[rs1] < bC+st.R[bR] {
				v = 1
			}
			st.R[rd] = v
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpSltu:
		return func(s *Sim) {
			st := s.eng.st
			var v int64
			if uint64(st.R[rs1]) < uint64(bC+st.R[bR]) {
				v = 1
			}
			st.R[rd] = v
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpMul:
		return func(s *Sim) {
			st := s.eng.st
			st.R[rd] = st.R[rs1] * (bC + st.R[bR])
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpDiv:
		return func(s *Sim) {
			st := s.eng.st
			var v int64
			if b := bC + st.R[bR]; b != 0 {
				v = st.R[rs1] / b
			}
			st.R[rd] = v
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpRem:
		return func(s *Sim) {
			st := s.eng.st
			var v int64
			if b := bC + st.R[bR]; b != 0 {
				v = st.R[rs1] % b
			}
			st.R[rd] = v
			s.setSlot(slot, 0, npcC)
		}
	case isa.OpSethi:
		vC := in.Imm << 11
		return func(s *Sim) {
			s.eng.st.R[rd] = vC
			s.setSlot(slot, 0, npcC)
		}
	}
	return nil
}
