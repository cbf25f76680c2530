package esm

import (
	"encoding/binary"
	"fmt"

	"quickstore/internal/disk"
	"quickstore/internal/lock"
)

// dirPage is page 1, the root directory: NewServer allocates it first, so
// data pages start at page 2. Named roots are transactional data kept in it
// (DESIGN.md §10, "Roots in the directory page"). The page bears a header —
// its first 8 bytes are the page LSN the server stamps — then, at dirUsedAt,
// the byte length of the entries packed from dirHead: name length (u16),
// name, OID (OIDSize), aux word (u64). An entry is never removed (a cleared
// root names NilOID), so a SetRoot overwrites an entry's OID and aux in place
// or appends an entry and moves the length past it. A fresh page is all
// zeroes: no entries.
const dirPage disk.PageID = 1

const (
	dirUsedAt = 8
	dirHead   = dirUsedAt + 2
)

// findRoot returns the offset of name's entry in the directory page dir, and
// whether it has one. An entry running past the page's length, or a length
// past the page, is an error: a directory no edit of this package wrote.
func findRoot(dir []byte, name string) (int, bool, error) {
	end := dirHead + int(binary.LittleEndian.Uint16(dir[dirUsedAt:]))
	if end > len(dir) {
		return 0, false, fmt.Errorf("esm: root directory claims %d bytes of a %d-byte page", end, len(dir))
	}
	for at := dirHead; at < end; {
		n := int(binary.LittleEndian.Uint16(dir[at:]))
		next := at + 2 + n + OIDSize + 8
		if at+2 > end || next > end {
			return 0, false, fmt.Errorf("esm: root directory entry at %d runs past its end %d", at, end)
		}
		if string(dir[at+2:at+2+n]) == name {
			return at, true, nil
		}
		at = next
	}
	return 0, false, nil
}

// rootDir is a session's copy of a root directory page. It sits in a slot
// beside the client pool, not in a pool frame, so it shifts no replacement
// order, and it is kept current as a frame is: Begin's change feed checks
// it (queueCheck's dirSlot), and a lock grant on its page revalidates it
// (granted). edits are the open transaction's SetRoots, held back from the
// log batch until Commit, so that no steal ships a root before its commit.
type rootDir struct {
	pid   disk.PageID // the page held: dirPage, or a shard's through a router; InvalidPage for none
	token uint64      // its coherence token, 0 for none
	valid bool        // vouched for in the open transaction: a read needs no call
	snap  uint64      // nonzero: read as of this snapshot
	data  []byte
	edits []dirEdit
}

// dirEdit is one byte run a SetRoot wrote on a directory page. Its
// before-image is the server's to write: the log batch carries only new,
// marked undoable (wal.WireUpdate).
type dirEdit struct {
	pid disk.PageID
	off int
	new []byte
}

// dirSlot stands for the directory slot in a Begin's ReadCheck batch
// (Client.checkIdxs), beside pool frame indexes.
const dirSlot = -1

// drop empties the slot; its edits stay for the commit.
func (d *rootDir) drop() {
	d.pid, d.token, d.valid, d.snap = disk.InvalidPage, 0, false, 0
}

// redo applies the open transaction's edits of the held page again, over an
// image just read from the server, which has none of them.
func (d *rootDir) redo() {
	for _, e := range d.edits {
		if e.pid == d.pid {
			copy(d.data[e.off:], e.new)
		}
	}
}

// edit writes b at off in the held page and keeps the run for the commit.
func (d *rootDir) edit(off int, b []byte) {
	d.edits = append(d.edits, dirEdit{d.pid, off, b})
	copy(d.data[off:], b)
}

// readDir makes the slot hold the directory page that has name's entry,
// current for the open transaction or snapshot. A session on one server
// holds dirPage and reads nothing while Begin's check vouched for it; a
// sharded session asks for the page by name on every call, since its Begin
// has no change feed, and the router answers with the page's global id.
func (c *Client) readDir(name string) error {
	switch d := &c.dir; {
	case c.sharded:
		return c.fillDir(dirPage, 0, name)
	case c.snap != 0 && d.snap != uint64(c.snap):
		return c.fillDir(dirPage, 0, "")
	case c.snap == 0 && (c.tx == 0 || !d.valid):
		return c.fillDir(dirPage, d.token, "")
	}
	return nil
}

// fillDir reads page pid into the slot with one OpReadPages, presenting
// token for the copy held (0 for none), by name through a sharding transport
// (name non-empty), and applies the open transaction's edits again.
func (c *Client) fillDir(pid disk.PageID, token uint64, name string) error {
	d := &c.dir
	if d.data == nil {
		d.data = make([]byte, disk.PageSize)
	}
	c.readEntries = AppendPageEntry(c.readEntries[:0], uint32(pid), token)
	a, resp, err := c.readPages(c.snap, 0, name)
	defer resp.Release()
	switch {
	case err != nil:
	case !a.Next():
		err = a.Err()
	case a.Stale:
		err = a.Apply(d.data)
	case token == 0:
		err = fmt.Errorf("esm: root directory page %d answered current for no copy", pid)
	}
	if err != nil {
		d.drop()
		return err
	}
	if name != "" && resp.Page != 0 {
		pid = disk.PageID(resp.Page)
	}
	d.pid, d.token, d.valid, d.snap = pid, a.Token, c.tx != 0, uint64(c.snap)
	d.redo()
	return nil
}

// GetRoot looks up a persistent named root: an OID plus an auxiliary word.
// It reads the committed directory, and the open transaction's own SetRoots;
// a warm session on one server reads it without a call.
func (c *Client) GetRoot(name string) (OID, uint64, error) {
	if err := c.readDir(name); err != nil {
		return NilOID, 0, err
	}
	at, ok, err := findRoot(c.dir.data, name)
	if err != nil {
		return NilOID, 0, err
	}
	if !ok {
		return NilOID, 0, fmt.Errorf("esm: no root %q", name)
	}
	e := c.dir.data[at+2+len(name):]
	return UnmarshalOID(e), binary.LittleEndian.Uint64(e[OIDSize:]), nil
}

// SetRoot names a persistent root in the open transaction. It takes the
// directory page's exclusive lock and edits the session's copy; the edit
// ships as log records with the commit, so the root is visible to others
// from the commit on, and an abort leaves no trace of it. A root the page
// has no room for is refused, and the transaction goes on without it.
func (c *Client) SetRoot(name string, oid OID, aux uint64) error {
	if c.tx == 0 {
		return ErrNoTx
	}
	if err := c.readDir(name); err != nil {
		return err
	}
	if err := c.Lock(lock.KindPage, uint32(c.dir.pid), lock.Exclusive); err != nil {
		return err
	}
	if c.dir.pid == disk.InvalidPage { // the grant's revalidation failed
		return fmt.Errorf("esm: root directory lost after its lock grant")
	}
	at, ok, err := findRoot(c.dir.data, name)
	if err != nil {
		return err
	}
	entry := make([]byte, 2+len(name)+OIDSize+8)
	binary.LittleEndian.PutUint16(entry, uint16(len(name)))
	copy(entry[2:], name)
	oid.Marshal(entry[2+len(name):])
	binary.LittleEndian.PutUint64(entry[2+len(name)+OIDSize:], aux)
	if ok {
		c.dir.edit(at+2+len(name), entry[2+len(name):])
		return nil
	}
	used := int(binary.LittleEndian.Uint16(c.dir.data[dirUsedAt:]))
	if len(name) > disk.PageSize || dirHead+used+len(entry) > disk.PageSize {
		return fmt.Errorf("esm: root directory full: no room for root %q (%d bytes, %d used)", name, len(entry), used)
	}
	c.dir.edit(dirUsedAt, binary.LittleEndian.AppendUint16(nil, uint16(used+len(entry))))
	c.dir.edit(dirHead+used, entry)
	return nil
}
