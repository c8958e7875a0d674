package passes

import "dae/internal/ir"

// SimplifyCFG performs branch folding, jump threading over empty blocks, and
// straight-line block merging, iterating to a fixpoint. It returns the
// number of transformations applied.
func SimplifyCFG(f *ir.Func) int {
	total := 0
	for {
		n := f.RemoveUnreachable()
		n += foldConstBranches(f)
		n += threadEmptyBlocks(f)
		n += mergeStraightLine(f)
		if n == 0 {
			return total
		}
		total += n
	}
}

// foldConstBranches turns condbr true/false into unconditional branches, and
// condbr with identical targets into a plain branch.
func foldConstBranches(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		cb, ok := b.Term().(*ir.CondBr)
		if !ok {
			continue
		}
		if c, isConst := ir.ConstBoolValue(cb.Cond); isConst {
			taken, dropped := cb.Then, cb.Else
			if !c {
				taken, dropped = cb.Else, cb.Then
			}
			if dropped != taken {
				for _, phi := range dropped.Phis() {
					phi.RemoveIncoming(b)
				}
			}
			b.Remove(cb)
			b.Append(ir.NewBr(taken))
			n++
			continue
		}
		if cb.Then == cb.Else {
			// A block cannot feed two phi edges; drop one.
			b.Remove(cb)
			b.Append(ir.NewBr(cb.Then))
			n++
		}
	}
	return n
}

// threadEmptyBlocks redirects edges that pass through a block containing only
// an unconditional branch, when phi constraints allow.
func threadEmptyBlocks(f *ir.Func) int {
	n := 0
	preds := f.Preds()
	for _, b := range f.Blocks {
		if b == f.Entry() || len(b.Instrs) != 1 {
			continue
		}
		br, ok := b.Term().(*ir.Br)
		if !ok || br.Target == b {
			continue
		}
		target := br.Target
		// If the target has phis, threading requires rewriting incoming
		// edges; only safe when, for every predecessor p of b, the target's
		// phi gains the value that flowed through b, and p is not already a
		// predecessor of target (which would need duplicate edges).
		tPreds := preds[target]
		ok = true
		for _, p := range preds[b] {
			if blockIn(tPreds, p) && len(target.Phis()) > 0 {
				ok = false
				break
			}
		}
		if !ok || len(preds[b]) == 0 {
			continue
		}
		for i, p := range preds[b] {
			if blockIn(preds[b][:i], p) {
				// A duplicate edge (p branches to b on both arms): the first
				// visit retargeted every arm and gave each phi its one
				// incoming value from p.
				continue
			}
			t := p.Term()
			for i, tgt := range t.Targets() {
				if tgt == b {
					t.SetTarget(i, target)
				}
			}
			for _, phi := range target.Phis() {
				v := phi.Incoming(b)
				if v != nil {
					phi.AddIncoming(v, p)
				}
			}
		}
		for _, phi := range target.Phis() {
			phi.RemoveIncoming(b)
		}
		f.RemoveBlock(b)
		n++
		// CFG changed; recompute predecessor map.
		preds = f.Preds()
	}
	return n
}

// mergeStraightLine merges b and its unique successor s when s has b as its
// only predecessor.
func mergeStraightLine(f *ir.Func) int {
	n := 0
	preds := f.Preds()
	for _, b := range f.Blocks {
		br, ok := b.Term().(*ir.Br)
		if !ok {
			continue
		}
		s := br.Target
		if s == b || s == f.Entry() || len(preds[s]) != 1 {
			continue
		}
		// Fold s's phis (single predecessor → single incoming value).
		for _, phi := range s.Phis() {
			v := phi.Incoming(b)
			f.ReplaceAllUses(phi, v)
			s.Remove(phi)
		}
		b.Remove(br)
		for _, in := range append([]ir.Instr{}, s.Instrs...) {
			s.Remove(in)
			b.Append(in)
		}
		// Successor phis that referenced s must now reference b.
		for _, succ := range b.Succs() {
			for _, phi := range succ.Phis() {
				for i := range phi.In {
					if phi.In[i].Pred == s {
						phi.In[i].Pred = b
					}
				}
			}
		}
		f.RemoveBlock(s)
		n++
		preds = f.Preds()
	}
	return n
}

func blockIn(s []*ir.Block, b *ir.Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}
