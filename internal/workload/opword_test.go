package workload

import (
	"math"
	"testing"

	"piranha/internal/cache"
	"piranha/internal/cpu"
	"piranha/internal/sim"
)

// op unpacks a word as Next does.
func (w opWord) op() cpu.Op {
	k, dep, n, a, d := w.fields()
	return cpu.Op{Kind: k, Dep: dep, N: n, Addr: a, IODelay: d}
}

// unpack builds a word and unpacks it, reporting a packing panic.
func unpack(build func() opWord) (op cpu.Op, panicked bool) {
	defer func() { panicked = recover() != nil }()
	return build().op(), false
}

// FuzzOpWord: every op the generators' constructors build survives a
// pack and unpack unchanged, and an operand that does not fit 60 bits
// (an address at or past 2^60, a negative count or delay) or a kind
// that does not fit 3 panics.
func FuzzOpWord(f *testing.F) {
	f.Add(uint64(0), int32(0), int64(0), false)
	f.Add(uint64(DefaultLayout().Scan.Base), int32(instrPerLine), int64(150*sim.Microsecond), true)
	f.Add(uint64(opMaxOperand), int32(math.MaxInt32), int64(opMaxOperand), true)
	f.Add(uint64(opMaxOperand+1), int32(-1), int64(opMaxOperand+1), false)
	f.Add(^uint64(0), int32(math.MinInt32), int64(math.MinInt64), true)
	f.Fuzz(func(t *testing.T, a uint64, n int32, d int64, dep bool) {
		addr, delay := cache.Addr(a), sim.Time(d)
		addrFits := a <= opMaxOperand
		cases := []struct {
			name  string
			build func() opWord
			want  cpu.Op
			fits  bool
		}{
			{"ld", func() opWord { return ld(addr, dep) }, cpu.Op{Kind: cpu.KLoad, Addr: addr, Dep: dep}, addrFits},
			{"st", func() opWord { return st(addr) }, cpu.Op{Kind: cpu.KStore, Addr: addr}, addrFits},
			{"hint", func() opWord { return hint(addr) }, cpu.Op{Kind: cpu.KStoreHint, Addr: addr}, addrFits},
			{"ifetch", func() opWord { return ifetch(addr) }, cpu.Op{Kind: cpu.KIFetch, Addr: addr}, addrFits},
			{"compute", func() opWord { return compute(n) }, cpu.Op{Kind: cpu.KCompute, N: n}, n >= 0},
			{"ioWait", func() opWord { return ioWait(delay) }, cpu.Op{Kind: cpu.KIO, IODelay: delay}, d >= 0 && d <= opMaxOperand},
			{"txMark", txMark, cpu.Op{Kind: cpu.KTxMark}, true},
			{"kind past 3 bits", func() opWord { return packOp(opDep, dep, a&opMaxOperand) }, cpu.Op{}, false},
		}
		for _, c := range cases {
			got, panicked := unpack(c.build)
			switch {
			case !c.fits && !panicked:
				t.Fatalf("%s: out-of-range operand packed to %+v", c.name, got)
			case c.fits && panicked:
				t.Fatalf("%s: panicked on %+v", c.name, c.want)
			case c.fits && got != c.want:
				t.Fatalf("%s: %+v unpacks to %+v", c.name, c.want, got)
			}
		}
	})
}
