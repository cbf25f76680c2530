package core

import (
	"encoding/binary"
	"fmt"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/page"
	"quickstore/internal/vmem"
)

// Every QuickStore small-object page carries a meta-object in slot 0
// (Section 3.4: "each page contains a direct pointer (OID) to a mapping
// object ... Actually, the pointer is contained in the meta-object located
// on the page"). The meta-object records the page's assigned virtual frame
// and the OIDs of its mapping object and bitmap object.
//
// Layout (metaObjSize bytes):
//
//	[0:8)   assigned virtual frame base address
//	[8:24)  mapping object OID (nil until the page first commits)
//	[24:40) bitmap object OID
const metaObjSize = 40

// metaSlot is the slot every meta-object occupies.
const metaSlot = 0

type metaObject struct {
	VFrame vmem.Addr
	MapOID esm.OID
	BmOID  esm.OID
}

func readMeta(p page.Slotted) (metaObject, error) {
	data, err := p.Object(metaSlot)
	if err != nil {
		return metaObject{}, fmt.Errorf("core: page has no meta-object: %w", err)
	}
	if len(data) != metaObjSize {
		return metaObject{}, fmt.Errorf("core: meta-object is %d bytes", len(data))
	}
	return metaObject{
		VFrame: vmem.Addr(binary.LittleEndian.Uint64(data[0:])),
		MapOID: esm.UnmarshalOID(data[8:]),
		BmOID:  esm.UnmarshalOID(data[24:]),
	}, nil
}

func writeMeta(p page.Slotted, m metaObject) error {
	data, err := p.Object(metaSlot)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(data[0:], uint64(m.VFrame))
	m.MapOID.Marshal(data[8:])
	m.BmOID.Marshal(data[24:])
	return nil
}

// mapEntry is one element of a mapping object: the virtual address range a
// referenced object occupied when this page was last memory resident, and
// that object's physical address ("Mapping objects are essentially just
// arrays of <virtual address range, disk address> pairs").
type mapEntry struct {
	ObjLo    vmem.Addr // base virtual address of the referenced page/object
	ObjPages uint32    // frames covered (1 for a small page)
	IsLarge  bool
	OID      esm.OID // meta-object OID (small page) or large-object OID
}

const mapEntrySize = 8 + 4 + 16 // 28 bytes

// maxPageMapEntries is the most entries a mapping object on one page holds:
// what a session's decode buffer (Store.mapEntries) is sized for at open.
const maxPageMapEntries = (disk.PageSize - 4) / mapEntrySize

// appendMapping appends the mapping object holding entries to dst.
func appendMapping(dst []byte, entries []mapEntry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	var oid [esm.OIDSize]byte
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.ObjLo))
		np := e.ObjPages &^ (1 << 31)
		if e.IsLarge {
			np |= 1 << 31
		}
		dst = binary.LittleEndian.AppendUint32(dst, np)
		e.OID.Marshal(oid[:])
		dst = append(dst, oid[:]...)
	}
	return dst
}

// appendMappingEntries decodes the mapping object buf onto dst.
func appendMappingEntries(dst []mapEntry, buf []byte) ([]mapEntry, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("core: short mapping object (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) < 4+n*mapEntrySize {
		return nil, fmt.Errorf("core: mapping object truncated (%d entries, %d bytes)", n, len(buf))
	}
	for p := 4; n > 0; n, p = n-1, p+mapEntrySize {
		np := binary.LittleEndian.Uint32(buf[p+8:])
		dst = append(dst, mapEntry{
			ObjLo:    vmem.Addr(binary.LittleEndian.Uint64(buf[p:])),
			ObjPages: np &^ (1 << 31),
			IsLarge:  np&(1<<31) != 0,
			OID:      esm.UnmarshalOID(buf[p+12:]),
		})
	}
	return dst, nil
}

// bitmapBytes is the size of a bitmap object: one bit per 8-byte-aligned
// word of an 8K page ("Each meta-object also contains a pointer (OID) to a
// bitmap object that records the locations of pointers on the page").
const bitmapBytes = disk.PageSize / 8 / 8 // 128

func bitmapSet(bm []byte, byteOff int) {
	w := byteOff >> 3
	bm[w>>3] |= 1 << (w & 7)
}

func bitmapClear(bm []byte, byteOff int) {
	w := byteOff >> 3
	bm[w>>3] &^= 1 << (w & 7)
}

func bitmapHas(bm []byte, byteOff int) bool {
	w := byteOff >> 3
	return bm[w>>3]&(1<<(w&7)) != 0
}

// forEachPointer calls fn with the page byte offset of every pointer
// recorded in the bitmap.
func forEachPointer(bm []byte, fn func(byteOff int) bool) {
	for i, b := range bm {
		if b == 0 {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				if !fn(((i << 3) + bit) << 3) {
					return
				}
			}
		}
	}
}
