package index

import (
	"fmt"
	"testing"
	"testing/quick"

	"tuffy/internal/db/storage"
)

func rid(n int) storage.RecordID {
	return storage.RecordID{Page: storage.PageID{File: 1, Num: int32(n / 100)}, Slot: n % 100}
}

func TestHashIndexBasic(t *testing.T) {
	h := NewHashIndex()
	h.Insert("a", rid(1))
	h.Insert("a", rid(2))
	h.Insert("b", rid(3))
	if got := h.Lookup("a"); len(got) != 2 {
		t.Fatalf("Lookup(a) = %v", got)
	}
	if got := h.Lookup("zzz"); got != nil {
		t.Fatalf("Lookup(zzz) = %v", got)
	}
	h.Delete("a", rid(1))
	if got := h.Lookup("a"); len(got) != 1 || got[0] != rid(2) {
		t.Fatalf("after delete Lookup(a) = %v", got)
	}
	h.Delete("a", rid(2))
	if _, ok := h.buckets["a"]; ok {
		t.Fatalf("empty bucket not removed")
	}
	h.Delete("never", rid(9)) // no-op
	if got := h.Lookup("b"); len(got) != 1 || got[0] != rid(3) {
		t.Fatalf("Lookup(b) = %v", got)
	}
}

// Under random inserts and deletes (duplicate keys, absent pairs) the index
// answers every lookup with exactly the rids a plain map of sets holds.
func TestHashIndexMatchesMapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := NewHashIndex()
		want := map[string]map[storage.RecordID]bool{}
		for i, op := range ops {
			key := fmt.Sprintf("%02d", op%16)
			r := rid(int(op>>4) % 8)
			if want[key] == nil {
				want[key] = map[storage.RecordID]bool{}
			}
			if i%3 == 2 {
				h.Delete(key, r)
				delete(want[key], r)
				continue
			}
			if !want[key][r] {
				h.Insert(key, r)
				want[key][r] = true
			}
		}
		for key, rids := range want {
			got := h.Lookup(key)
			if len(got) != len(rids) {
				return false
			}
			for _, r := range got {
				if !rids[r] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
