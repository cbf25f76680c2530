// Package repl replicates the page server: the leader ships its WAL byte
// stream to follower nodes over the esm protocol, gates every commit ack on
// a configurable quorum of durable replicas, and promotes a follower via a
// raft-lite election (term + highest-durable-LSN wins) when the leader
// dies. See DESIGN.md §14 for the model.
package repl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"quickstore/internal/esm"
	"quickstore/internal/pagedelta"
	"quickstore/internal/wal"
)

// OpReplAck modes (Request.Mode).
const (
	// ModeStatus probes a node: the response Data is a JSON Status.
	ModeStatus = iota
	// ModeVote requests a vote: Tx = candidate term, N = candidate durable
	// LSN, Name = candidate id. Response N is 1 when granted; Data carries
	// the voter's term as a little-endian u64 either way.
	ModeVote
	// ModeRegister announces a follower to the leader: Name = "id\x00addr".
	// The leader dials addr back and starts shipping (snapshot first).
	ModeRegister
)

// Status is the JSON payload answering an OpReplAck status probe.
type Status struct {
	ID      string `json:"id"`
	Role    string `json:"role"`
	Term    uint64 `json:"term"`
	Durable uint64 `json:"durable_lsn"`
	Leader  string `json:"leader"`
}

// Member is one cluster node as carried in ship and snapshot frames, so
// followers learn the full membership (and can campaign against it) without
// a separate configuration channel. A ship frame carries the list only
// while the follower does not hold its version; a snapshot always does.
type Member struct {
	ID   string
	Addr string // dialable address; "" for in-process members
}

// shipPayload is the body of an OpReplAppend request. The log chunk starts
// at the LSN in the request's N field. MembersVer is the version of the
// leader's membership; Members is the list itself, or nil in a frame to a
// follower that acked that version (a real list always names the leader).
// Cut and Through are the leader's last checkpoint, in a frame to a
// follower whose log is verified through Through and does not yet start at
// Cut: the follower cuts its log there once it is durable through Through.
// Through is 0 in every other frame.
type shipPayload struct {
	LeaderDurable wal.LSN
	Log           []byte
	MembersVer    uint64
	Members       []Member
	Cut, Through  wal.LSN
}

// The flags of an OpReplAppend answer, whose N is the follower's durable LSN.
const (
	// ackSnapshot, in Response.Page: only a snapshot can resynchronize
	// the follower (its position is compacted or its bytes diverge).
	ackSnapshot = 1
	// ackNeedMembers, in Response.Mode: the follower does not hold the
	// frame's membership version; the next frame carries the list.
	ackNeedMembers = 1
	// ackCut, in Response.Mode: the follower's log starts at or past the
	// frame's Cut.
	ackCut = 2
)

// snapPayload is the body of an OpReplSnapshot request: every volume page of
// the leader, its full durable log from LogStart, replacing the follower's
// state wholesale, and the member list with its version (MembersVer), which
// the follower then holds. The frame is
//
//	u32 NumPages | u32 n | n × (u32 id | u32 len | image) |
//	u64 LogStart | u32 len | log | u64 MembersVer | members
//
// where each len | image is the page's sized image
// (pagedelta.AppendSizedImage): the sparse image, shorter than a page, or
// the page itself when sparse is not shorter. The
// pages come first, so the leader encodes each one straight into the frame
// as it reads it and cuts the log after the last (Node.buildSnapshot).
type snapPayload struct {
	NumPages   uint32 // leader volume geometry; follower pages beyond this are zeroed
	Pages      []pageImage
	LogStart   wal.LSN
	Log        []byte
	MembersVer uint64
	Members    []Member
}

type pageImage struct {
	ID   uint32
	Data pagedelta.Image // the page's image as it travels, checked by parseSnap
}

var (
	errShortPayload    = errors.New("repl: truncated payload")
	errTrailingPayload = errors.New("repl: bytes past the end of a ship frame")
	errBadCut          = errors.New("repl: malformed cut in a ship frame")
)

func appendU32(dst []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(dst, tmp[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(dst, tmp[:]...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendMembers(dst []byte, ms []Member) []byte {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], uint16(len(ms)))
	dst = append(dst, tmp[:]...)
	for _, m := range ms {
		binary.LittleEndian.PutUint16(tmp[:], uint16(len(m.ID)))
		dst = append(dst, tmp[:]...)
		dst = append(dst, m.ID...)
		binary.LittleEndian.PutUint16(tmp[:], uint16(len(m.Addr)))
		dst = append(dst, tmp[:]...)
		dst = append(dst, m.Addr...)
	}
	return dst
}

// cursor is a bounds-checked reader over a payload; every take fails
// cleanly on truncation instead of slicing past the end (the fuzzers feed
// arbitrary prefixes of valid frames).
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.buf)-c.off < n {
		c.err = errShortPayload
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *cursor) bytes() []byte {
	n := c.u32()
	return c.take(int(n))
}

// members reads a member list; a count of 0 decodes to nil, allocating
// nothing.
func (c *cursor) members() []Member {
	n := int(c.u16())
	var ms []Member
	for i := 0; i < n; i++ {
		id := string(c.take(int(c.u16())))
		addr := string(c.take(int(c.u16())))
		if c.err != nil {
			return nil
		}
		ms = append(ms, Member{ID: id, Addr: addr})
	}
	return ms
}

// appendTo appends the frame to dst; with a dst of enough capacity it
// allocates nothing. The frame ends in a byte that says whether the cut
// follows it.
func (p *shipPayload) appendTo(dst []byte) []byte {
	dst = appendU64(dst, uint64(p.LeaderDurable))
	dst = appendBytes(dst, p.Log)
	dst = appendU64(dst, p.MembersVer)
	dst = appendMembers(dst, p.Members)
	if p.Through == 0 {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendU64(dst, uint64(p.Cut))
	return appendU64(dst, uint64(p.Through))
}

// parseShip decodes a ship frame. Log aliases buf; a frame without a
// member list allocates nothing. A parsed frame re-encodes to buf exactly.
func parseShip(buf []byte) (shipPayload, error) {
	c := cursor{buf: buf}
	p := shipPayload{
		LeaderDurable: wal.LSN(c.u64()),
		Log:           c.bytes(),
		MembersVer:    c.u64(),
	}
	p.Members = c.members()
	if cut := c.take(1); cut != nil && cut[0] != 0 {
		p.Cut, p.Through = wal.LSN(c.u64()), wal.LSN(c.u64())
		if cut[0] != 1 || (c.err == nil && p.Through == 0) {
			c.err = errBadCut
		}
	}
	if c.err == nil && c.off != len(buf) {
		c.err = errTrailingPayload
	}
	if c.err != nil {
		return shipPayload{}, c.err
	}
	return p, nil
}

// appendSnapHead starts a snapshot frame of n pages of a volume of
// numPages pages; n appendSnapPage calls and one appendSnapTail follow.
func appendSnapHead(dst []byte, numPages uint32, n int) []byte {
	return appendU32(appendU32(dst, numPages), uint32(n))
}

// appendSnapPage appends page id, one whole page, to a snapshot frame as its
// sparse image. Every page the stream ships is encoded here.
func appendSnapPage(dst []byte, id uint32, page []byte) []byte {
	return pagedelta.AppendSizedImage(appendU32(dst, id), page)
}

// appendSnapTail ends a snapshot frame with the log from start and the
// membership at version ver.
func appendSnapTail(dst []byte, start wal.LSN, log []byte, ver uint64, members []Member) []byte {
	dst = appendU64(dst, uint64(start))
	dst = appendBytes(dst, log)
	dst = appendU64(dst, ver)
	return appendMembers(dst, members)
}

// parseSnap decodes a snapshot frame of pageSize-byte pages. Every page
// image is checked (pagedelta.ReadSizedImage) before the frame is accepted, so
// a malformed one is refused before the follower writes any page. Page
// images and the log alias buf.
func parseSnap(buf []byte, pageSize int) (*snapPayload, error) {
	c := cursor{buf: buf}
	p := &snapPayload{NumPages: c.u32()}
	n := int(c.u32())
	p.Pages = make([]pageImage, 0, min(n, len(buf)/8))
	for i := 0; i < n; i++ {
		id := c.u32()
		if c.err != nil {
			return nil, c.err
		}
		img, k, err := pagedelta.ReadSizedImage(c.buf[c.off:], pageSize)
		if err != nil {
			return nil, fmt.Errorf("repl: snapshot page %d: %w", id, err)
		}
		c.off += k
		p.Pages = append(p.Pages, pageImage{ID: id, Data: img})
	}
	p.LogStart = wal.LSN(c.u64())
	p.Log = c.bytes()
	p.MembersVer = c.u64()
	p.Members = c.members()
	if c.err != nil {
		return nil, c.err
	}
	return p, nil
}

// Fencing and redirect errors travel the protocol as strings; the prefixes
// below are the contract the Director and the shipper parse.
const (
	staleTermPrefix = "repl: stale term"
	notLeaderPrefix = "repl: not leader"
)

func staleTermError(got, current uint64) string {
	return fmt.Sprintf("%s %d (current term %d)", staleTermPrefix, got, current)
}

func notLeaderError(leaderID, leaderAddr string) string {
	if leaderID == "" {
		return notLeaderPrefix + "; no leader known (election pending)"
	}
	return fmt.Sprintf("%s; leader=%s addr=%s", notLeaderPrefix, leaderID, leaderAddr)
}

// IsNotLeader reports whether a Response.Err is a leader redirect.
func IsNotLeader(errStr string) bool { return strings.HasPrefix(errStr, notLeaderPrefix) }

// IsStaleTerm reports whether a Response.Err is a term fence.
func IsStaleTerm(errStr string) bool { return strings.HasPrefix(errStr, staleTermPrefix) }

// leaderAddrFrom extracts the redirect target from a not-leader error;
// empty when the rejecting node knew no leader.
func leaderAddrFrom(errStr string) string {
	i := strings.Index(errStr, "addr=")
	if i < 0 {
		return ""
	}
	return strings.TrimSpace(errStr[i+len("addr="):])
}

// statusJSON marshals a Status; the inverse of ParseStatus.
func statusJSON(st *Status) []byte {
	b, _ := json.Marshal(st)
	return b
}

// ParseStatus decodes an OpReplAck status response payload.
func ParseStatus(data []byte) (*Status, error) {
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("repl: bad status payload: %w", err)
	}
	return &st, nil
}

// StatusOf probes a node through tr.
func StatusOf(tr esm.Transport) (*Status, error) {
	resp, err := tr.Call(&esm.Request{Op: esm.OpReplAck, Mode: ModeStatus})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return ParseStatus(resp.Data)
}
