package useq

import (
	"strings"
	"testing"
)

func TestPackFields(t *testing.T) {
	w := Pack(TEST, 5, 9, 0x2a3)
	op, a0, a1, next := w.Fields()
	if op != TEST || a0 != 5 || a1 != 9 || next != 0x2a3 {
		t.Fatalf("fields %v %d %d %#x", op, a0, a1, next)
	}
	if uint32(w)>>WordBits != 0 {
		t.Fatalf("word wider than %d bits", WordBits)
	}
	if !strings.Contains(w.String(), "TEST") {
		t.Fatalf("disassembly %q", w)
	}
}

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAssemblerBasics(t *testing.T) {
	p := mustAssemble(t, `
		; a tiny program
	start:	SET  r1, 7
		MOVE r2, r1
		HALT
	`)
	if len(p.Words) != 3 {
		t.Fatalf("%d words", len(p.Words))
	}
	if a, _ := p.Entry("start"); a != 0 {
		t.Fatalf("start at %d", a)
	}
	op, a0, a1, _ := p.Words[0].Fields()
	if op != SET || a0 != 1 || a1 != 7 {
		t.Fatal("SET encoding wrong")
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"SET r99, 1",            // bad register
		"SET r1, 99",            // immediate out of range
		"FROB r1, r2",           // unknown mnemonic
		"JMP nowhere",           // unknown label
		"x: SET r1,1\nx: HALT",  // duplicate label
		"TEST r1",               // missing table
		".org 5\nt: TEST r1 @t", // table at address 5: unaligned
	}
	for i, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Fatalf("case %d (%q): expected error", i, src)
		}
	}
}

func TestSetMoveTest(t *testing.T) {
	p := mustAssemble(t, `
	start:	SET  r0, 3
		MOVE r1, r0
		TEST r1 @table
	.align 16
	table:	JMP wrong       ; 0
		JMP wrong       ; 1
		JMP wrong       ; 2
	ok:	SET r5, 15      ; 3  <- r1 == 3 lands here
		HALT
	wrong:	SET r5, 1
		HALT
	`)
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Start(0, 0)
	e.Run(100)
	th := e.Thread(0)
	if !th.Halted {
		t.Fatal("thread did not halt")
	}
	if th.Regs[5] != 15 {
		t.Fatalf("branch went wrong: r5=%d", th.Regs[5])
	}
}

func TestSendEmitsMessage(t *testing.T) {
	p := mustAssemble(t, `
	start:	SET  r2, 9
		SEND 4, r2
		LSEND 1, r2
		HALT
	`)
	e, _ := NewEngine(p)
	e.Start(3, 0)
	e.Run(100)
	if len(e.Out) != 2 {
		t.Fatalf("%d messages", len(e.Out))
	}
	if m := e.Out[0]; m.Thread != 3 || m.Type != 4 || m.Arg != 9 || m.Local {
		t.Fatalf("remote message %+v", m)
	}
	if m := e.Out[1]; !m.Local || m.Type != 1 {
		t.Fatalf("local message %+v", m)
	}
}

func TestReceiveBlocksAndBranches(t *testing.T) {
	p := mustAssemble(t, `
	start:	RECEIVE r1 @table
	.align 16
	table:	JMP t0
		JMP t0
	slot2:	SET r7, 2      ; message type 2 lands here
		HALT
	t0:	SET r7, 1
		HALT
	`)
	e, _ := NewEngine(p)
	e.Start(0, 0)
	if n := e.Run(10); n > 1 {
		t.Fatalf("engine ran %d cycles with nothing to receive", n)
	}
	if e.Thread(0).Halted {
		t.Fatal("halted while waiting")
	}
	// A local message must NOT wake a remote RECEIVE.
	if err := e.Deliver(Message{Thread: 0, Type: 2, Arg: 5, Local: true}); err != nil {
		t.Fatal(err)
	}
	if e.runnable(0) {
		t.Fatal("local message woke a remote RECEIVE")
	}
	e.inbox[0] = nil
	if err := e.Deliver(Message{Thread: 0, Type: 2, Arg: 5}); err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	th := e.Thread(0)
	if th.Regs[7] != 2 {
		t.Fatalf("type-2 dispatch failed: r7=%d", th.Regs[7])
	}
	if th.Regs[1] != 5 {
		t.Fatalf("message arg not captured: r1=%d", th.Regs[1])
	}
}

func TestEvenOddInterleave(t *testing.T) {
	p := mustAssemble(t, `
	start:	SET r0, 1
		SET r0, 2
		SET r0, 3
		HALT
	`)
	e, _ := NewEngine(p)
	e.Start(0, 0) // even thread
	e.Start(1, 0) // odd thread
	// With both runnable, consecutive cycles must alternate parity.
	e.Step()
	first := e.Thread(0).Executed + 0
	e.Step()
	if e.Thread(0).Executed == first+1 {
		t.Fatal("same-parity thread ran twice in a row while the other was runnable")
	}
	e.Run(100)
	if !e.Thread(0).Halted || !e.Thread(1).Halted {
		t.Fatal("threads did not complete")
	}
}

// protocolSrc is the microcoded read path: the remote engine of the
// requesting node and the home engine, as sketched in the paper ("a
// typical read transaction to a remote home involves a total of four
// instructions at the remote engine of the requesting node: a SEND of the
// request to the home, a RECEIVE of the reply, a TEST of a state
// variable, and an LSEND that replies to the waiting processor").
const protocolSrc = `
; ---- remote engine (requester side) ----
re_read:	SEND 1, r1              ; request to home (type 1)
		RECEIVE r2 @re_reply    ; wait for the reply
.align 16
re_reply:	JMP re_err              ; type 0
		JMP re_err              ; type 1
re_data:	TEST r3 @re_state       ; type 2 = data reply
		JMP re_err              ; type 3
.align 16
re_state:	LSEND 2, r2 -> halt     ; state 0: reply to the waiting CPU
re_err:		SET r15, 15
		HALT

; ---- home engine ----
he_read:	LSEND 3, r1             ; read data+directory from memory
		LRECEIVE r2 @he_dir     ; local reply type = directory state
.align 16
he_dir:		SEND 2, r2 -> halt      ; 0: uncached -> data reply
		SEND 2, r2 -> halt      ; 1: shared -> data reply
he_fwd:		SEND 3, r4 -> halt      ; 2: exclusive -> forward to owner
`

func TestMicrocodedRemoteReadTransaction(t *testing.T) {
	p := mustAssemble(t, protocolSrc)
	if p2 := len(p.Words); p2 > StoreSize {
		t.Fatalf("program size %d", p2)
	}

	re, _ := NewEngine(p)
	he, _ := NewEngine(p)
	reEntry, _ := p.Entry("re_read")
	heEntry, _ := p.Entry("he_read")

	// CPU read request allocates TSRF entry 0 at the requester.
	re.Start(0, reEntry)
	re.Thread(0).Regs[1] = 7 // "address"
	re.Run(10)

	// The request message reaches the home: allocate a home thread.
	if len(re.Out) != 1 || re.Out[0].Type != 1 {
		t.Fatalf("requester emitted %+v", re.Out)
	}
	he.Start(0, heEntry)
	he.Thread(0).Regs[1] = re.Out[0].Arg
	he.Run(10)

	// The home asked its memory controller for data + directory.
	if len(he.Out) != 1 || !he.Out[0].Local || he.Out[0].Type != 3 {
		t.Fatalf("home emitted %+v", he.Out)
	}
	// Memory replies: directory state 0 (uncached), data token 9.
	if err := he.Deliver(Message{Thread: 0, Type: 0, Arg: 9, Local: true}); err != nil {
		t.Fatal(err)
	}
	he.Run(10)
	if len(he.Out) != 2 || he.Out[1].Type != 2 || he.Out[1].Arg != 9 {
		t.Fatalf("home reply %+v", he.Out)
	}

	// The data reply reaches the requester.
	if err := re.Deliver(Message{Thread: 0, Type: 2, Arg: 9}); err != nil {
		t.Fatal(err)
	}
	re.Run(10)

	reT := re.Thread(0)
	if !reT.Halted {
		t.Fatal("requester transaction did not complete")
	}
	// The paper's headline count: exactly four instructions at the RE.
	if reT.Executed != 4 {
		t.Fatalf("remote engine executed %d instructions, want 4", reT.Executed)
	}
	// Home engine: LSEND + LRECEIVE + SEND = 3.
	if he.Thread(0).Executed != 3 {
		t.Fatalf("home engine executed %d instructions, want 3", he.Thread(0).Executed)
	}
	// The CPU got its data.
	last := re.Out[len(re.Out)-1]
	if !last.Local || last.Type != 2 || last.Arg != 9 {
		t.Fatalf("CPU reply %+v", last)
	}
}

func TestMicrocodedDirtyForward(t *testing.T) {
	p := mustAssemble(t, protocolSrc)
	he, _ := NewEngine(p)
	entry, _ := p.Entry("he_read")
	he.Start(0, entry)
	he.Thread(0).Regs[4] = 11 // owner id token
	he.Run(10)
	// Directory state 2 = exclusive: the home must forward (type 3).
	he.Deliver(Message{Thread: 0, Type: 2, Arg: 0, Local: true})
	he.Run(10)
	if len(he.Out) != 2 || he.Out[1].Type != 3 || he.Out[1].Arg != 11 {
		t.Fatalf("forward message %+v", he.Out)
	}
}

func TestSixteenConcurrentThreads(t *testing.T) {
	p := mustAssemble(t, `
	start:	RECEIVE r1 @tbl
	.align 16
	tbl:	SET r2, 1 -> halt
	`)
	e, _ := NewEngine(p)
	for i := 0; i < Threads; i++ {
		e.Start(i, 0)
	}
	e.Run(100) // all block in RECEIVE
	for i := 0; i < Threads; i++ {
		if err := e.Deliver(Message{Thread: i, Type: 0, Arg: uint8(i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(1000)
	for i := 0; i < Threads; i++ {
		th := e.Thread(i)
		if !th.Halted || th.Regs[1] != uint8(i) {
			t.Fatalf("thread %d: halted=%v r1=%d", i, th.Halted, th.Regs[1])
		}
	}
}

func TestDeliverErrors(t *testing.T) {
	p := mustAssemble(t, "start: RECEIVE r1 @t\n.align 16\nt: HALT")
	e, _ := NewEngine(p)
	if err := e.Deliver(Message{Thread: 0, Type: 0}); err == nil {
		t.Fatal("delivery to halted thread accepted")
	}
	e.Start(0, 0)
	e.Run(10)
	if err := e.Deliver(Message{Thread: 0, Type: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Deliver(Message{Thread: 0, Type: 0}); err == nil {
		t.Fatal("double delivery accepted")
	}
}

func BenchmarkMicrocodedRemoteRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := RemoteReadCounts(); err != nil {
			b.Fatal(err)
		}
	}
}
