package workload

import "piranha/internal/sim"

// instrPerLine is how many 4-byte Alpha instructions fit a 64-byte line.
const instrPerLine = 16

// codeWalker models an instruction stream over a code region: runs of
// sequential lines (basic blocks falling through) punctuated by jumps to
// function entry points drawn from a Zipf distribution — the hot-function
// skew every large engine exhibits. One KIFetch op is emitted per line
// transition; the 16 instructions of each line are a KCompute.
type codeWalker struct {
	region   Region
	nFuncs   int
	zipf     *sim.Zipf
	runLines int // mean sequential run length before a jump
	pos      uint64
	left     int
}

// newCodeWalker builds a walker with nFuncs entry points, drawn from
// zipf (a sampler over [0, nFuncs), which walkers may share), and the
// given mean run length in lines.
func newCodeWalker(region Region, nFuncs, runLines int, zipf *sim.Zipf) *codeWalker {
	if nFuncs < 1 {
		nFuncs = 1
	}
	return &codeWalker{
		region:   region,
		nFuncs:   nFuncs,
		zipf:     zipf,
		runLines: runLines,
	}
}

// emit appends the ops for executing approximately instrs instructions.
func (w *codeWalker) emit(ops []opWord, r *sim.RNG, instrs int) []opWord {
	lines := (instrs + instrPerLine - 1) / instrPerLine
	total := w.region.Lines()
	for i := 0; i < lines; i++ {
		if w.left <= 0 {
			// Jump to a function entry; entries spread evenly across
			// the region, popularity Zipf-distributed.
			f := uint64(w.zipf.Next(r))
			w.pos = f * total / uint64(w.nFuncs)
			w.left = 1 + r.Intn(2*w.runLines)
		}
		ops = append(ops, ifetch(w.region.LineAt(w.pos)), compute(instrPerLine))
		w.pos++
		w.left--
	}
	return ops
}
