package coherence

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// busyDir returns a directory after a random read/write mix over block
// addresses spread across many address bytes.
func busyDir(seed int64) *Directory {
	d := newDir(8)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3000; i++ {
		addr := (rng.Uint64() >> uint(rng.Intn(40))) &^ 31
		if rng.Intn(3) == 0 {
			d.Write(rng.Intn(8), addr)
		} else {
			d.Read(rng.Intn(8), addr)
		}
	}
	return d
}

// TestDirectoryStateRecordRoundTrip: a directory's state lists its
// entries in ascending block order, its checkpoint record decodes to the
// same state, and a fresh directory restored from it captures the same
// state again.
func TestDirectoryStateRecordRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st := busyDir(seed).State()
		if len(st.Entries) == 0 {
			t.Fatal("no directory entries")
		}
		for i := 1; i < len(st.Entries); i++ {
			if st.Entries[i].Block <= st.Entries[i-1].Block {
				t.Fatalf("entries not strictly ascending at %d", i)
			}
		}
		rec, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var dec DirectoryState
		if err := dec.UnmarshalBinary(rec); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, st) {
			t.Fatal("decoded record differs from the state")
		}
		d := newDir(8)
		if err := d.Restore(dec); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.State(), st) {
			t.Fatal("restored directory captures a different state")
		}
	}
}

// TestSortEntriesMatchesComparisonSort: the radix sort orders entries
// exactly as a comparison sort by block does, including blocks that
// differ only in high bytes or share most of their bytes.
func TestSortEntriesMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		// Blocks drawn from a random bit mask at a random shift: few
		// distinct bytes, or only high ones, so the sort skips digits.
		n, shift, mask := rng.Intn(300), uint(rng.Intn(64)), rng.Uint64()
		seen := map[uint64]bool{}
		var es []DirEntryState
		for tries := 0; tries < 4*n; tries++ {
			b := (rng.Uint64() & mask) << shift
			if !seen[b] && len(es) < n {
				seen[b] = true
				es = append(es, DirEntryState{Block: b, Sharers: rng.Uint64(), Owner: int8(rng.Intn(9) - 1)})
			}
		}
		want := slices.Clone(es)
		slices.SortFunc(want, func(a, b DirEntryState) int { return cmp.Compare(a.Block, b.Block) })
		sortEntries(es)
		if !slices.Equal(es, want) {
			t.Fatalf("trial %d: radix order differs from comparison order", trial)
		}
	}
}

// TestDirectoryStateRecordRefusesDamage: every truncation of a record,
// a trailing byte, and a cache count past the 64-core limit are errors.
func TestDirectoryStateRecordRefusesDamage(t *testing.T) {
	st := newDir(2).State()
	st.Entries = []DirEntryState{{Block: 5, Sharers: 3, Owner: -1}, {Block: 9, Sharers: 1, Owner: 0}}
	rec, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dec DirectoryState
	for n := 0; n < len(rec); n++ {
		if err := dec.UnmarshalBinary(rec[:n]); err == nil {
			t.Fatalf("record cut to %d of %d bytes accepted", n, len(rec))
		}
	}
	if err := dec.UnmarshalBinary(append(rec, 0)); err == nil {
		t.Fatal("record with a trailing byte accepted")
	}
	many := append([]byte{maxCaches + 1}, make([]byte, (maxCaches+1)*cacheRecordBytes+4)...)
	if err := dec.UnmarshalBinary(many); err == nil {
		t.Fatal("directory of 65 caches accepted")
	}
}

// TestStatsCountersCoverEveryField: the checkpoint record lists every
// Stats counter, in declaration order.
func TestStatsCountersCoverEveryField(t *testing.T) {
	var s Stats
	cs := s.counters()
	v := reflect.ValueOf(&s).Elem()
	if v.NumField() != len(cs) {
		t.Fatalf("Stats has %d fields, the record lists %d", v.NumField(), len(cs))
	}
	for i, c := range cs {
		if v.Field(i).Addr().Interface() != any(c) {
			t.Fatalf("record counter %d is not Stats field %s", i, v.Type().Field(i).Name)
		}
	}
}
