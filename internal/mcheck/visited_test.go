package mcheck

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// refSet is the reference the visited set is compared with: a Go map
// from key to state number, numbering keys in the order they were added.
type refSet map[string]int32

func (r refSet) add(k []byte) (int32, bool) {
	if id, ok := r[string(k)]; ok {
		return id, false
	}
	id := int32(len(r))
	r[string(k)] = id
	return id, true
}

// checkAdd adds k to both sets and fails unless they agree.
func checkAdd(t testing.TB, v *visitedSet, ref refSet, k []byte) {
	t.Helper()
	wantID, wantAdded := ref.add(k)
	id, added := v.add(k, hashTag(k))
	if id != wantID || added != wantAdded {
		t.Fatalf("add(%.40x, %d bytes) = %d, %v; the map says %d, %v", k, len(k), id, added, wantID, wantAdded)
	}
}

// checkLookup looks k up in both sets and fails unless they agree.
func checkLookup(t testing.TB, v *visitedSet, ref refSet, k []byte) {
	t.Helper()
	wantID, wantOK := ref[string(k)]
	id, ok := v.lookup(k)
	if ok != wantOK || (ok && id != wantID) {
		t.Fatalf("lookup(%.40x, %d bytes) = %d, %v; the map says %d, %v", k, len(k), id, ok, wantID, wantOK)
	}
}

// checkSame fails unless v holds exactly the keys of ref, each under the
// same state number.
func checkSame(t testing.TB, v *visitedSet, ref refSet) {
	t.Helper()
	if v.len() != len(ref) {
		t.Fatalf("the set holds %d keys, the map %d", v.len(), len(ref))
	}
	for k, id := range ref {
		if got := v.key(id); !bytes.Equal(got, []byte(k)) {
			t.Fatalf("key(%d) = %.40x, want %.40x", id, got, k)
		}
		checkLookup(t, v, ref, []byte(k))
	}
}

// The visited set numbers and finds keys exactly as a map does: the
// empty key, keys longer than 255 bytes and than a whole chunk, repeated
// keys, keys that differ only in their last byte, and enough short keys
// to grow the index many times and fill many chunks.
func TestVisitedSetMatchesMap(t *testing.T) {
	var keys [][]byte
	keys = append(keys, nil, []byte{}, []byte{0}, []byte{0, 0})
	for _, n := range []int{255, 256, 300, minChunk - 1, minChunk, minChunk + 1, maxChunk + 1} {
		k := bytes.Repeat([]byte{byte(n)}, n)
		last := bytes.Clone(k)
		last[n-1]++
		keys = append(keys, k, last, k)
	}
	for i := range 40_000 {
		k := binary.LittleEndian.AppendUint64(nil, uint64(i))
		k = append(k, bytes.Repeat([]byte{7}, i%97)...)
		keys = append(keys, k)
		if i%5 == 0 {
			keys = append(keys, k) // a repeat
		}
		if i%7 == 0 {
			last := bytes.Clone(k)
			last[len(last)-1] ^= 0x80
			keys = append(keys, last)
		}
	}

	var v visitedSet
	ref := refSet{}
	checkLookup(t, &v, ref, nil) // an empty set finds nothing
	for _, k := range keys {
		checkLookup(t, &v, ref, k)
		checkAdd(t, &v, ref, k)
		checkLookup(t, &v, ref, k)
	}
	checkSame(t, &v, ref)
	if len(v.slots) < 1<<15 || len(v.chunks) < 5 {
		t.Fatalf("%d keys left %d index slots and %d chunks; the test should grow both several times",
			v.len(), len(v.slots), len(v.chunks))
	}
	for i, c := range v.chunks {
		if cap(c) > maxChunk && len(c) != cap(c) {
			t.Errorf("chunk %d has room for %d bytes but holds %d: only a key longer than %d bytes gets a chunk past that size",
				i, cap(c), len(c), maxChunk)
		}
	}
	// Absent keys: a stored key one byte shorter or longer.
	for _, k := range keys[:200] {
		checkLookup(t, &v, ref, append(bytes.Clone(k), 1))
		if len(k) > 0 {
			checkLookup(t, &v, ref, k[:len(k)-1])
		}
	}
}

// Looking up, or adding again, a key already stored allocates nothing.
func TestVisitedLookupAllocatesNothing(t *testing.T) {
	var v visitedSet
	for i := range 1_000 {
		k := []byte(fmt.Sprintf("state-%d", i))
		v.add(k, hashTag(k))
	}
	k := []byte("state-517")
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := v.lookup(k); !ok {
			t.Fatal("stored key not found")
		}
		if _, added := v.add(k, hashTag(k)); added {
			t.Fatal("stored key added again")
		}
	}); allocs != 0 {
		t.Fatalf("a lookup of a stored key allocates %.1f objects, want 0", allocs)
	}
}

// FuzzVisitedSet reads its input as a sequence of keys, each a length
// byte followed by up to that many bytes, adds each to the visited set
// and to a map, and requires the two to agree on every add and on every
// lookup: of the key, of the key with its last byte changed, and at the
// end of every key stored.
func FuzzVisitedSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 'a', 'b', 'c', 3, 'a', 'b', 'd', 3, 'a', 'b', 'c'})
	f.Add(append([]byte{255}, bytes.Repeat([]byte{1}, 300)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v visitedSet
		ref := refSet{}
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			k := data[1 : 1+n]
			data = data[1+n:]
			checkAdd(t, &v, ref, k)
			if n > 0 {
				other := bytes.Clone(k)
				other[n-1]++
				checkLookup(t, &v, ref, other)
			}
		}
		checkSame(t, &v, ref)
	})
}
