package mcheck

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"piranha/internal/protocol"
)

// walkLeaves calls f with the path and a settable view of every scalar
// field reachable from v: struct fields (exported or not), array
// elements and slice elements, recursively.
func walkLeaves(v reflect.Value, path string, f func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	case reflect.Array, reflect.Slice:
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

// clone returns a deep copy of s that shares no channel array with it.
func (s *state) clone() state {
	var out state
	out.copyFrom(s)
	return out
}

// sampleState is a state with one message on every channel and every
// scalar field, channel messages included, set to a distinct non-zero
// value (booleans true).
func sampleState(t *testing.T) state {
	var s state
	for src := range s.chans {
		for dst := range s.chans[src] {
			s.chans[src][dst] = []msg{{}}
		}
	}
	next := uint64(1)
	walkLeaves(reflect.ValueOf(&s).Elem(), "state", func(path string, v reflect.Value) {
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

// lostFields lists the fields of s, as walkLeaves paths, that do not
// survive a round trip through the canonical key.
func lostFields(s state) []string {
	values := func(s *state) map[string]string {
		out := map[string]string{}
		walkLeaves(reflect.ValueOf(s).Elem(), "state", func(path string, v reflect.Value) {
			out[path] = fmt.Sprint(v.Interface())
		})
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
// the state, of any node, or of any message on any channel changes the
// key, and decoding the key restores the changed state exactly. A field
// added to the state but not to the key fails here instead of silently
// merging distinct states.
func TestKeyCapturesEveryField(t *testing.T) {
	base := sampleState(t)
	baseKey := string(base.appendKey(nil, maxNodes))
	if lost := lostFields(base); len(lost) > 0 {
		t.Fatalf("decoding the sample state's key loses %v", lost)
	}
	var leaves []string
	walkLeaves(reflect.ValueOf(&base).Elem(), "state", func(path string, _ reflect.Value) {
		leaves = append(leaves, path)
	})
	for i, want := range leaves {
		s := base.clone()
		n := 0
		walkLeaves(reflect.ValueOf(&s).Elem(), "state", func(path string, v reflect.Value) {
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
	// Channel occupancy is part of the key too.
	for src := range base.chans {
		for dst := range base.chans[src] {
			s := base.clone()
			s.chans[src][dst] = append(s.chans[src][dst], msg{})
			if string(s.appendKey(nil, maxNodes)) == baseKey {
				t.Errorf("a second message on chans[%d][%d] leaves the key unchanged", src, dst)
			}
		}
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

// Successors are built in one reused scratch state from the decoded
// current state, and both keep the backing arrays of emptied channels. A
// send on the successor must not write into the current state's arrays,
// and a successor built after another must not keep the first one's
// sends.
func TestSuccessorSharesNoChannelArrays(t *testing.T) {
	var full, empty, cur, next state
	full.chans[1][0] = []msg{{kind: protocol.MsgReq, src: 1}}
	cur.decode(full.appendKey(nil, 2), 2)
	cur.decode(empty.appendKey(nil, 2), 2) // chans[1][0]: len 0, cap 1
	next.copyFrom(&cur)
	next.chans[1][0] = append(next.chans[1][0], msg{kind: protocol.MsgWB, src: 1})
	if got := cur.chans[1][0][:1][0]; got.kind != protocol.MsgReq {
		t.Fatalf("a send on the successor overwrote the current state's channel array: %v", got)
	}
	next.copyFrom(&cur)
	if len(next.chans[1][0]) != 0 {
		t.Fatalf("a successor built after another keeps its sends: %v", next.chans[1][0])
	}
}
