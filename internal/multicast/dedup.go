package multicast

import "slices"

// A dedup record keeps three ID sets in one sorted slice, told apart by
// the top two bits of each entry: the hypercubes the packet entered
// (Figure 6 step 4), the CH slots it reached inside a hypercube (step
// 5) and the members it was delivered to (step 6).
const (
	tagCube   uint32 = 0 << 30
	tagSlot   uint32 = 1 << 30
	tagMember uint32 = 2 << 30
	idMask    uint32 = 1<<30 - 1
)

// dedupRec is one packet's duplicate-suppression state. Send creates it
// and every header derived from the packet's first one points at it, so
// a reception reaches its record without a lookup. A packet's audience
// is tens of entries, so a sorted slice beats per-UID maps on both
// memory and speed.
type dedupRec struct {
	uid     uint64
	ids     []uint32 // tag|id, ascending
	members int      // entries tagged tagMember
	// listed marks the record as present in Service.seen: from its first
	// entry until ForgetPacket.
	listed bool
}

// key packs a tagged ID; IDs must fit in 30 bits.
func key(tag uint32, id int) uint32 {
	if uint(id) > uint(idMask) {
		panic("multicast: dedup ID out of range")
	}
	return tag | uint32(id)
}

// has reports whether the tagged ID is recorded.
func (r *dedupRec) has(tag uint32, id int) bool {
	_, found := slices.BinarySearch(r.ids, key(tag, id))
	return found
}

// add records the tagged ID and reports whether it was new.
func (r *dedupRec) add(tag uint32, id int) bool {
	k := key(tag, id)
	i, found := slices.BinarySearch(r.ids, k)
	if found {
		return false
	}
	r.ids = slices.Insert(r.ids, i, k)
	if tag == tagMember {
		r.members++
	}
	return true
}

// reset empties the record, keeping its storage for later entries.
func (r *dedupRec) reset() {
	r.ids = r.ids[:0]
	r.members = 0
	r.listed = false
}
