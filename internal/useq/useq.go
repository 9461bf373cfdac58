// Package useq implements the microprogrammable controller at the heart
// of Piranha's protocol engines (paper §2.5.1, following the S3.mp design).
//
// The microcode store holds 1024 21-bit instructions. Each instruction is
// a 3-bit opcode, two 4-bit arguments, and a 10-bit next-instruction
// address. Seven instruction types exist: SEND, RECEIVE, LSEND (to the
// local node), LRECEIVE (from the local node), TEST, SET, and MOVE.
// RECEIVE, LRECEIVE and TEST behave as multi-way conditional branches: a
// 4-bit condition code is OR-ed into the least significant bits of the
// next-address field, giving up to 16 successors.
//
// To allow 500 MHz operation the hardware interleaves two threads,
// fetching the next instruction for an even-addressed thread while
// executing an odd-addressed one; the model reproduces that schedule. A
// thread is one TSRF entry (16 per engine): program counter, transaction
// address, timer, and state variables (the register file here).
package useq

import "fmt"

// Geometry of the microcode store.
const (
	// StoreSize is the number of microcode words.
	StoreSize = 1024
	// WordBits is the instruction width.
	WordBits = 21
	// Threads is the number of TSRF entries (concurrent transactions).
	Threads = 16
	// Regs is the per-thread state-variable count.
	Regs = 16
)

// Opcode is the 3-bit operation field.
type Opcode uint8

// The seven instruction types.
const (
	SEND     Opcode = iota // send a message to a remote node
	RECEIVE                // wait for a remote message; 16-way branch on type
	LSEND                  // send a message to the local node
	LRECEIVE               // wait for a local message; 16-way branch on type
	TEST                   // 16-way branch on a state variable
	SET                    // set a state variable to an immediate
	MOVE                   // copy one state variable to another
)

var opNames = [...]string{"SEND", "RECEIVE", "LSEND", "LRECEIVE", "TEST", "SET", "MOVE"}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", o)
}

// Word is one 21-bit microinstruction:
// bits [20:18] opcode, [17:14] arg0, [13:10] arg1, [9:0] next address.
type Word uint32

// Pack builds an instruction word.
func Pack(op Opcode, a0, a1 uint8, next uint16) Word {
	return Word(uint32(op)<<18 | uint32(a0&0xf)<<14 | uint32(a1&0xf)<<10 | uint32(next&0x3ff))
}

// Fields unpacks an instruction word.
func (w Word) Fields() (op Opcode, a0, a1 uint8, next uint16) {
	return Opcode(w >> 18 & 7), uint8(w >> 14 & 0xf), uint8(w >> 10 & 0xf), uint16(w & 0x3ff)
}

// String disassembles the word.
func (w Word) String() string {
	op, a0, a1, next := w.Fields()
	return fmt.Sprintf("%-8s %d, %d -> %03x", op, a0, a1, next)
}

// Message is what the engine exchanges with the world. Type is the 4-bit
// code that RECEIVE/LRECEIVE branch on; Arg carries a state variable.
type Message struct {
	Thread int
	Type   uint8
	Arg    uint8
	Local  bool // emitted by LSEND / consumed by LRECEIVE
}

// Thread is one TSRF entry.
type Thread struct {
	PC      uint16
	Regs    [Regs]uint8
	Waiting bool // blocked in RECEIVE/LRECEIVE
	Local   bool // waiting for a local (vs remote) message
	Halted  bool
	// Executed counts instructions retired by this thread.
	Executed uint64
}

// Engine is one microsequencer with its TSRF.
type Engine struct {
	store   [StoreSize]Word
	threads [Threads]Thread

	// Out receives every message the engine sends; the harness drains it.
	Out []Message
	// inbox holds one pending message per thread.
	inbox [Threads]*Message

	// Cycles counts executed machine cycles (one instruction per cycle,
	// alternating even/odd threads).
	Cycles uint64
	parity int
}

// NewEngine loads a program into the microcode store.
func NewEngine(p *Program) (*Engine, error) {
	if len(p.Words) > StoreSize {
		return nil, fmt.Errorf("useq: program of %d words exceeds store (%d)", len(p.Words), StoreSize)
	}
	e := &Engine{}
	copy(e.store[:], p.Words)
	for i := range e.threads {
		e.threads[i].Halted = true
	}
	return e, nil
}

// Start activates a TSRF entry at the given entry point.
func (e *Engine) Start(thread int, entry uint16) {
	t := &e.threads[thread]
	*t = Thread{PC: entry}
}

// Thread returns a TSRF entry for inspection.
func (e *Engine) Thread(i int) *Thread { return &e.threads[i] }

// Deliver hands a message to a waiting thread (matched by TSRF entry,
// as the hardware matches responses by transaction address).
func (e *Engine) Deliver(m Message) error {
	t := &e.threads[m.Thread]
	if t.Halted {
		return fmt.Errorf("useq: message for halted thread %d", m.Thread)
	}
	if e.inbox[m.Thread] != nil {
		return fmt.Errorf("useq: thread %d inbox full", m.Thread)
	}
	mm := m
	e.inbox[m.Thread] = &mm
	return nil
}

// runnable reports whether thread i can execute an instruction now.
func (e *Engine) runnable(i int) bool {
	t := &e.threads[i]
	if t.Halted {
		return false
	}
	if !t.Waiting {
		return true
	}
	m := e.inbox[i]
	return m != nil && m.Local == t.Local
}

// Step executes one machine cycle: the next runnable thread of the
// current parity group runs one instruction (even/odd interleave).
// It reports whether any instruction executed.
func (e *Engine) Step() bool {
	for attempt := 0; attempt < 2; attempt++ {
		for k := 0; k < Threads/2; k++ {
			i := e.parity + 2*((int(e.Cycles)+k)%(Threads/2))
			if e.runnable(i) {
				e.exec(i)
				e.Cycles++
				e.parity = 1 - e.parity
				return true
			}
		}
		// No runnable thread of this parity; try the other group.
		e.parity = 1 - e.parity
	}
	return false
}

// Run steps until no thread can make progress or limit cycles pass.
func (e *Engine) Run(limit int) int {
	n := 0
	for n < limit && e.Step() {
		n++
	}
	return n
}

// exec retires one instruction of thread i.
func (e *Engine) exec(i int) {
	t := &e.threads[i]
	op, a0, a1, next := e.store[t.PC].Fields()
	switch op {
	case SEND, LSEND:
		t.Executed++
		e.Out = append(e.Out, Message{Thread: i, Type: a0, Arg: t.Regs[a1], Local: op == LSEND})
		t.PC = next
	case RECEIVE, LRECEIVE:
		local := op == LRECEIVE
		m := e.inbox[i]
		if m == nil || m.Local != local {
			// Enter the waiting state; the PC does not advance and the
			// instruction has not retired (it completes on delivery).
			t.Waiting = true
			t.Local = local
			return
		}
		e.inbox[i] = nil
		t.Waiting = false
		t.Executed++
		// The message's 4-bit type is OR-ed into the next address; the
		// message argument lands in the register named by a1.
		t.Regs[a1] = m.Arg
		t.PC = next | uint16(m.Type&0xf)
		_ = a0
	case TEST:
		t.Executed++
		t.PC = next | uint16(t.Regs[a0]&0xf)
	case SET:
		t.Executed++
		t.Regs[a0] = a1
		t.PC = next
	case MOVE:
		t.Executed++
		t.Regs[a0] = t.Regs[a1]
		t.PC = next
	}
	if t.PC == haltAddr {
		t.Halted = true
	}
}

// haltAddr is the conventional "transaction complete" address: jumping to
// the last store word halts the thread and frees the TSRF entry.
const haltAddr = StoreSize - 1
