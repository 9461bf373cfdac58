package useq

import "fmt"

// ReferenceProtocol is the microcoded inter-node read path used by the
// documentation, examples and the §2.5.1 reproduction: the remote-engine
// side of a read to a remote home (the paper's four-instruction example)
// and the home-engine side (memory + directory lookup, data reply or
// forward to owner).
const ReferenceProtocol = `
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

// RemoteReadCounts runs one microcoded remote-read transaction end to end
// across a remote and a home engine and reports the instruction counts
// (the paper: four instructions at the remote engine) plus the microcode
// store usage.
func RemoteReadCounts() (reInstr, heInstr uint64, storeWords int, err error) {
	p, err := Assemble(ReferenceProtocol)
	if err != nil {
		return 0, 0, 0, err
	}
	re, err := NewEngine(p)
	if err != nil {
		return 0, 0, 0, err
	}
	he, _ := NewEngine(p)
	reEntry, _ := p.Entry("re_read")
	heEntry, _ := p.Entry("he_read")

	re.Start(0, reEntry)
	re.Thread(0).Regs[1] = 7
	re.Run(100)
	if len(re.Out) != 1 {
		return 0, 0, 0, fmt.Errorf("useq: requester emitted %d messages", len(re.Out))
	}
	he.Start(0, heEntry)
	he.Thread(0).Regs[1] = re.Out[0].Arg
	he.Run(100)
	if err := he.Deliver(Message{Thread: 0, Type: 0, Arg: 9, Local: true}); err != nil {
		return 0, 0, 0, err
	}
	he.Run(100)
	if err := re.Deliver(Message{Thread: 0, Type: 2, Arg: 9}); err != nil {
		return 0, 0, 0, err
	}
	re.Run(100)
	if !re.Thread(0).Halted || !he.Thread(0).Halted {
		return 0, 0, 0, fmt.Errorf("useq: transaction did not complete")
	}
	return re.Thread(0).Executed, he.Thread(0).Executed, len(p.Words), nil
}
