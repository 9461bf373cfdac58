package mcheck

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"piranha/internal/directory"
	"piranha/internal/protocol"
)

// walkLeaves calls f with the path and a settable view of every scalar
// field reachable from v: struct fields (exported or not) and array
// elements, recursively.
func walkLeaves(v reflect.Value, path string, f func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	default:
		f(path, reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem())
	}
}

// bump changes a scalar leaf to a different value.
func bump(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		v.SetUint(v.Uint() + 1)
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
		v.SetInt(v.Int() + 1)
	default:
		t.Fatalf("%s: field kind %v has no perturbation; teach bump and the key about it", path, v.Kind())
	}
}

// walkLive calls f with the path and a settable view of every scalar
// field the canonical key must capture: every field of the state but its
// message array and channel counts, and every field of each message in
// flight. Unused message slots are left out.
func walkLive(s *state, f func(path string, leaf reflect.Value)) {
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch name {
		case "counts":
		case "msgs":
			for m := range s.inFlight() {
				walkLeaves(v.Field(i).Index(m), fmt.Sprintf("state.msgs[%d]", m), f)
			}
		default:
			walkLeaves(v.Field(i), "state."+name, f)
		}
	}
}

// sampleState is a state with one message on every channel between two
// distinct nodes, which leaves unused message slots, and every field the
// key captures set to a distinct non-zero value (booleans true).
func sampleState(t *testing.T) state {
	var s state
	for src := range maxNodes {
		for dst := range maxNodes {
			if src != dst {
				if err := s.push(msg{src: uint8(src), dst: uint8(dst)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	next := uint64(1)
	walkLive(&s, func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			v.SetUint(next)
		default:
			bump(t, path, v)
		}
		next++
	})
	return s
}

// lostFields lists what of s, as walkLive paths and channel counts, does
// not survive a round trip through the canonical key.
func lostFields(s state) []string {
	values := func(s *state) map[string]string {
		out := map[string]string{}
		walkLive(s, func(path string, v reflect.Value) {
			out[path] = fmt.Sprint(v.Interface())
		})
		for c, n := range s.counts {
			out[fmt.Sprintf("state.counts[%d]", c)] = fmt.Sprint(n)
		}
		return out
	}
	var back state
	back.decode(s.appendKey(nil, maxNodes), maxNodes)
	want, got := values(&s), values(&back)
	var lost []string
	for path, v := range want {
		if g, ok := got[path]; !ok || g != v {
			lost = append(lost, path)
		}
	}
	for path := range got {
		if _, ok := want[path]; !ok {
			lost = append(lost, path+" (spurious)")
		}
	}
	sort.Strings(lost)
	return lost
}

// The canonical key is the explorer's only stored copy of a visited
// state, so it must capture every field: changing any single field of
// the state, of any node, or of any message in flight changes the key,
// and decoding the key restores the changed state exactly. A field added
// to the state but not to the key fails here instead of silently merging
// distinct states.
func TestKeyCapturesEveryField(t *testing.T) {
	base := sampleState(t)
	baseKey := string(base.appendKey(nil, maxNodes))
	if lost := lostFields(base); len(lost) > 0 {
		t.Fatalf("decoding the sample state's key loses %v", lost)
	}
	var leaves []string
	walkLive(&base, func(path string, _ reflect.Value) {
		leaves = append(leaves, path)
	})
	for i, want := range leaves {
		s := base
		n := 0
		walkLive(&s, func(path string, v reflect.Value) {
			if n == i {
				bump(t, path, v)
			}
			n++
		})
		if string(s.appendKey(nil, maxNodes)) == baseKey {
			t.Errorf("changing %s leaves the canonical key unchanged", want)
		}
		if lost := lostFields(s); len(lost) > 0 {
			t.Errorf("changing %s: decoding the key loses %v", want, lost)
		}
	}
	// Channel occupancy is part of the key too: one message more on any
	// channel, or one fewer on a channel that has one, changes it.
	off := 0
	for c, n := range base.counts {
		src, dst := c/maxNodes, c%maxNodes
		s := base
		if err := s.push(msg{src: uint8(src), dst: uint8(dst)}); err != nil {
			t.Fatal(err)
		}
		if string(s.appendKey(nil, maxNodes)) == baseKey {
			t.Errorf("a message more on channel %d->%d leaves the key unchanged", src, dst)
		}
		if lost := lostFields(s); len(lost) > 0 {
			t.Errorf("a message more on channel %d->%d: decoding the key loses %v", src, dst, lost)
		}
		if n > 0 {
			s = base
			s.pop(c, off)
			if string(s.appendKey(nil, maxNodes)) == baseKey {
				t.Errorf("a message fewer on channel %d->%d leaves the key unchanged", src, dst)
			}
		}
		off += int(n)
	}
}

// Message slots past the last message in flight are not part of the
// state: two states that differ only there have equal keys. A successor
// is an assignment of its parent, so it inherits the parent's stale
// slots, and a delivery moves one of them into the slot it vacates.
func TestUnusedSlotsLeaveKeyAlone(t *testing.T) {
	base := sampleState(t)
	live := base.inFlight()
	if live == maxMsgs {
		t.Fatal("the sample state has no unused message slot")
	}
	stale := base
	for i := live; i < maxMsgs; i++ {
		stale.msgs[i] = msg{kind: protocol.MsgWB, src: 3, dst: 2, val: uint8(i), hasData: true}
	}
	if string(stale.appendKey(nil, maxNodes)) != string(base.appendKey(nil, maxNodes)) {
		t.Fatal("states that differ only in unused message slots have different keys")
	}
	// Deliver the first head of the state with stale slots: the successor
	// differs from its decoded copy, whose unused slots are zero, yet
	// their keys are equal.
	next := stale
	next.pop(channel(0, 1), 0)
	var fresh state
	k := next.appendKey(nil, maxNodes)
	fresh.decode(k, maxNodes)
	if fresh == next {
		t.Fatal("the successor kept no stale slot; this test expects one")
	}
	if string(fresh.appendKey(nil, maxNodes)) != string(k) {
		t.Fatal("a successor with stale slots and its decoded copy have different keys")
	}
}

// A state is a value: it holds no pointer, slice, map, string or other
// reference, so assigning it copies all of it and a successor shares
// nothing with the state it was built from.
func TestStateHoldsNoPointer(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %v: a state must hold no reference", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(state{}), "state")
}

// A send into a state that already holds maxMsgs messages ends the
// transition as an InvMsgCapacity violation whose step renders the
// successor, and does not panic: expansion runs on helper goroutines,
// where nothing would recover a panic.
func TestSendPastCapacityIsViolation(t *testing.T) {
	cfg := Config{Nodes: 4}.withDefaults()
	m := newModel(protocol.Piranha(), cfg)
	var full state
	bits, err := directory.Encode(cfg.dcfg, directory.Clear())
	if err != nil {
		t.Fatal(err)
	}
	full.dir = bits
	// Fill the state with write-back acks from node 2 to node 3, which
	// awaits none: their delivery is itself a violation, but every
	// processor issue at an idle node sends a request.
	for range maxMsgs {
		if err := full.push(msg{kind: protocol.MsgWBAck, src: 2, dst: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := full.push(msg{kind: protocol.MsgWBAck, src: 2, dst: 3}); err == nil {
		t.Fatal("push accepted a message past the capacity")
	}
	x := expander{model: &m, expansion: &expansion{}}
	x.expand(full.appendKey(nil, cfg.Nodes), 0)
	sent := 0
	for _, f := range x.found {
		if f.v.invariant != InvMsgCapacity {
			continue
		}
		sent++
		if f.step.Kind != "op" || f.step.Rule == "" || !strings.Contains(f.step.State, fmt.Sprintf("msgs=%d", maxMsgs)) {
			t.Errorf("capacity violation renders step %+v", f.step)
		}
	}
	if sent == 0 {
		t.Fatalf("no issue at a full state reported %s; found %v", InvMsgCapacity, x.found)
	}
	var broken int
	for _, ev := range x.events {
		if ev.kind == evBroken {
			broken++
		}
	}
	if broken < sent {
		t.Errorf("%d capacity violations but %d broken-transition events", sent, broken)
	}
}

// Every state a 3-node exploration visits round-trips through its key:
// decoding the stored key and re-encoding the result gives the same key,
// and the visited set's index finds each key under its own state number.
func TestVisitedKeysRoundTrip(t *testing.T) {
	e := explore(protocol.Piranha(), Config{Nodes: 3})
	if e.visited.len() != e.states.len() {
		t.Fatalf("%d visited keys for %d states", e.visited.len(), e.states.len())
	}
	var s state
	for i := range e.states.len() {
		k := e.visited.key(int32(i))
		s.decode(k, 3)
		if got := s.appendKey(nil, 3); !bytes.Equal(got, k) {
			t.Fatalf("state %d: key %x re-encodes as %x", i, k, got)
		}
		if id, ok := e.visited.lookup(k); !ok || int(id) != i {
			t.Fatalf("state %d: the visited index finds its key at state %d (found %v)", i, id, ok)
		}
	}
}
