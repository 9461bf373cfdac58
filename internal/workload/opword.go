package workload

import (
	"fmt"

	"piranha/internal/cache"
	"piranha/internal/cpu"
	"piranha/internal/sim"
)

// opWord is one queued op in a machine word, a third of cpu.Op's 24
// bytes: the kind in bits 0-2, Dep in bit 3, and the kind's operand in
// the upper 60 bits (N for KCompute, IODelay for KIO, Addr otherwise).
type opWord uint64

const (
	opDep        = 1 << 3
	opShift      = 4
	opMaxOperand = 1<<(64-opShift) - 1
)

// packOp panics on a kind that does not fit 3 bits or an operand that
// does not fit 60 (a negative N or IODelay, an address at or past 2^60);
// no layout comes close.
func packOp(k cpu.OpKind, dep bool, operand uint64) opWord {
	if k >= opDep || operand > opMaxOperand {
		panic(fmt.Sprintf("workload: op kind %d with operand %#x does not fit an op word", k, operand))
	}
	w := opWord(operand<<opShift | uint64(k))
	if dep {
		w |= opDep
	}
	return w
}

// fields unpacks the word. Next builds the cpu.Op in its own return
// statement: an inlined helper returning a cpu.Op copies the struct
// through the stack, and the copy stalls on store forwarding.
//
//piranha:hotpath
func (w opWord) fields() (k cpu.OpKind, dep bool, n int32, a cache.Addr, d sim.Time) {
	k, v := cpu.OpKind(w&(opDep-1)), uint64(w>>opShift)
	a = cache.Addr(v)
	if k == cpu.KCompute {
		n, a = int32(v), 0
	}
	if k == cpu.KIO {
		d, a = sim.Time(v), 0
	}
	return k, w&opDep != 0, n, a, d
}

// The op constructors the generators emit.
func ld(a cache.Addr, dep bool) opWord { return packOp(cpu.KLoad, dep, uint64(a)) }
func st(a cache.Addr) opWord           { return packOp(cpu.KStore, false, uint64(a)) }
func hint(a cache.Addr) opWord         { return packOp(cpu.KStoreHint, false, uint64(a)) }
func ifetch(a cache.Addr) opWord       { return packOp(cpu.KIFetch, false, uint64(a)) }
func compute(n int32) opWord           { return packOp(cpu.KCompute, false, uint64(n)) }
func ioWait(d sim.Time) opWord         { return packOp(cpu.KIO, false, uint64(d)) }
func txMark() opWord                   { return packOp(cpu.KTxMark, false, 0) }
