package esm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"quickstore/internal/disk"
	"quickstore/internal/pagedelta"
	"quickstore/internal/wal"
)

// Op enumerates protocol operations between the client and the page server.
type Op uint8

// Protocol operations.
const (
	// OpBegin opens a transaction; the response's N is its id. Data is empty
	// or the change-feed horizon the session's previous Begin was told
	// (HorizonBytes; all zero for none). With a horizon, the response's Data
	// is the current horizon followed by one page entry (AppendPageEntry)
	// per page whose version moved since, carrying its current token — or,
	// under Mode RespStale, the horizon alone: the feed cannot answer that
	// horizon, and the client validates its whole resident set (DESIGN.md
	// §18, "Change feed").
	OpBegin Op = iota + 1
	// OpCommit commits the transaction; Data is its last commit payload
	// (ReadPayload), the response's N the commit LSN. With Tx TxBegin the
	// commit begins the transaction it ends, in the same request: the
	// payload is checked, then the transaction begins and commits. A
	// refused one is ended before the answer, so nothing of it is left
	// behind (the shard router's commit on a shard the transaction has not
	// begun on).
	OpCommit
	OpAbort
	// OpReadPage and OpWritePage are reserved: page reads are OpReadPages,
	// and a stolen page rides an OpLog. The values stay taken so that no
	// later op reuses them; a server answers them as unknown.
	OpReadPage
	OpWritePage
	OpAllocPages
	OpFreePages
	// OpLock acquires the lock Mode names (kind in the high nibble, mode in
	// the low) on Page, waiting for it if need be; for a page lock N carries
	// the token of the client's cached copy (RespStale answers it). Data is
	// empty or the lock-ahead list: page entries (AppendPageEntry), the
	// OpReadPages request shape, naming further pages to lock in the same
	// mode only if that costs no wait. The response's Data then holds one
	// LockAhead* verdict byte per entry, in request order. A page lock on
	// disk.InvalidPage demands nothing — the list is all there is to it (the
	// shard router's request to the shards that do not own the demanded page).
	OpLock
	// OpLog ships a commit payload (ReadPayload) mid-transaction: a steal's
	// records, and the stolen page itself when it ships whole.
	OpLog
	OpCreateFile
	OpOpenFile
	// Two values are retired: named roots are entries of the root directory
	// page, read by OpReadPages and written by a commit's log records. The
	// values stay taken, like OpReadPage's.
	_
	_
	OpCounter
	OpCheckpoint
	OpStats
	// OpReadPages is the one page-read op: "these pages, as of N; I hold
	// these tokens". Data is a list of page entries (AppendPageEntry), token
	// 0 for a page the client holds nothing of; Page repeats the first
	// entry's id. N is the snapshot LSN to read at, 0 for the live pages.
	// Mode is 0 or ReadCheck. The answer (AppendAnswerHead, AppendAnswer,
	// ReadAnswers) marks each entry current or stale and carries, in request
	// order, one image or delta patch per stale entry. A demand fault, a
	// revalidation and a snapshot read are batches of one; mapping-object
	// read-ahead (internal/prefetch) and Begin validation are longer ones.
	// A sharded session's root lookup is a batch of one, the root directory
	// page, with Name set to the root: a shard router sends it to the shard
	// that owns the name and answers with that shard's page id in Page.
	OpReadPages
	// Replication ops (internal/repl). OpReplAppend ships a durable WAL
	// byte chunk (Tx = leader term, N = start LSN, Data = ship payload)
	// from the leader to a follower; the response's N is the follower's
	// durable LSN after splice+flush. OpReplAck is the control plane:
	// status probes, vote requests, and follower registration, selected by
	// Mode. OpReplSnapshot seeds a follower wholesale (log bytes plus
	// volume page images) when incremental shipping cannot reach it.
	OpReplAppend
	OpReplAck
	OpReplSnapshot
	// Snapshot-session ops (internal/mvcc). OpBeginSnapshot opens a
	// read-only snapshot session: the request's N carries the client's
	// last-seen commit LSN (read-your-writes floor; 0 for none), the
	// response's N is the snapshot LSN S the server pinned; the session's
	// pages are read by OpReadPages with N = S, which never touches the lock
	// manager. OpEndSnapshot unpins S. Begin and read are idempotent and may
	// be retried or re-routed across replicas; End is not (a replay would
	// double-unpin), so a lost End ack is left to the version store's byte
	// cap to absorb. OpSnapRead is reserved, like OpReadPage.
	OpBeginSnapshot
	OpSnapRead
	OpEndSnapshot
	// Two-phase commit ops (internal/shard). OpPrepare votes a participant
	// into the prepared state: Data carries the shard's part of the commit
	// payload (SplitPayload), Page the coordinator's shard id, N the
	// coordinator-local transaction id; Mode must be zero. The coordinator
	// never prepares. OpCommitDecision delivers the commit verdict (Mode
	// bits: commit, coordinator); to the coordinator it is the commit of
	// its own part, carried in Data like an OpCommit payload. An abort
	// verdict is an OpAbort. OpResolveTx is the presumed-abort inquiry:
	// Mode selects inquire / forget / list (see ResolveMode*). None are
	// idempotent, so none are retryable across replicas.
	OpPrepare
	OpCommitDecision
	OpResolveTx
	// OpValidatePages is reserved, like OpReadPage: Begin validation is an
	// OpReadPages with ReadCheck.
	OpValidatePages
)

// TxBegin is the transaction id of an OpCommit that begins its own
// transaction. No server hands it out: ids count up from 1.
const TxBegin = ^uint64(0)

// String names the operation for diagnostics.
func (o Op) String() string {
	names := [...]string{"", "BEGIN", "COMMIT", "ABORT", "READ", "WRITE", "ALLOC",
		"FREE", "LOCK", "LOG", "CREATEFILE", "OPENFILE", "", "",
		"COUNTER", "CHECKPOINT", "STATS", "READPAGES",
		"REPLAPPEND", "REPLACK", "REPLSNAPSHOT",
		"BEGINSNAP", "SNAPREAD", "ENDSNAP",
		"PREPARE", "DECIDE", "RESOLVETX", "VALIDATEPAGES"}
	if int(o) < len(names) && names[o] != "" {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// OpCommitDecision request mode flags.
const (
	// DecisionCommit carries the commit verdict. A decision without it is
	// refused: an abort verdict travels as an OpAbort.
	DecisionCommit uint8 = 1
	// DecisionCoord addresses the coordinator itself, on its live,
	// unprepared transaction: it applies its part of the payload (Data),
	// logs the single RecDecision record (its own commit record) and
	// remembers the verdict for OpResolveTx inquiries until forgotten.
	DecisionCoord uint8 = 2
)

// OpResolveTx request modes.
const (
	// ResolveModeInquire asks the coordinator for the outcome of one of
	// its transactions (Request.Tx = coordinator-local id). The response's
	// N is a Resolve* outcome.
	ResolveModeInquire uint8 = 0
	// ResolveModeForget drops the coordinator's remembered decision once
	// every participant has acknowledged it (end of protocol).
	ResolveModeForget uint8 = 1
	// ResolveModeList returns the server's own in-doubt participant
	// transactions as repeated (coordShard u32, coordTx u64, localTx u64)
	// entries in Data.
	ResolveModeList uint8 = 2
)

// OpResolveTx inquiry outcomes (Response.N).
const (
	// ResolveAborted: no decision and no live transaction — presumed abort.
	ResolveAborted uint64 = 0
	// ResolveCommitted: a decision record exists; the transaction committed.
	ResolveCommitted uint64 = 1
	// ResolvePending: the transaction is still live at the coordinator;
	// the resolver must retry later.
	ResolvePending uint64 = 2
)

// ResolveEntryBytes is the wire size of one ResolveModeList entry.
const ResolveEntryBytes = 4 + 8 + 8

// AppendResolveEntry marshals one in-doubt entry onto dst in the
// ResolveModeList wire format.
func AppendResolveEntry(dst []byte, coordShard uint32, coordTx, localTx uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], coordShard)
	dst = append(dst, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:], coordTx)
	dst = append(dst, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], localTx)
	return append(dst, tmp[:]...)
}

// ParseResolveEntries decodes a ResolveModeList payload.
func ParseResolveEntries(data []byte) (coordShards []uint32, coordTxs, localTxs []uint64, err error) {
	if len(data)%ResolveEntryBytes != 0 {
		return nil, nil, nil, fmt.Errorf("esm: resolve list payload %d bytes, not a multiple of %d", len(data), ResolveEntryBytes)
	}
	for off := 0; off < len(data); off += ResolveEntryBytes {
		coordShards = append(coordShards, binary.LittleEndian.Uint32(data[off:]))
		coordTxs = append(coordTxs, binary.LittleEndian.Uint64(data[off+4:]))
		localTxs = append(localTxs, binary.LittleEndian.Uint64(data[off+12:]))
	}
	return coordShards, coordTxs, localTxs, nil
}

// Warm-cache coherence wire pieces (DESIGN.md §18).
//
// A page *token* is the server's version stamp for a page image: the LSN
// of the commit (or CLR) that produced it, or the server's boot epoch for
// a page nothing has changed since it booted. Tokens are opaque to the
// client and compared only for equality; token 0 means "unversioned" and
// never matches, so a page whose current image cannot safely be cached
// (e.g. it carries a not-yet-committed stolen install) is served with
// token 0 and refetched next time.

// OpReadPages request mode flags.
const (
	// ReadCheck marks Begin validation: the entries name the client's clean
	// resident frames. The server answers without disturbing its pool or
	// charging the cost model, and leaves a stale entry unanswered when it
	// has no committed image to repair it from (another transaction's
	// install is pending on the page): the client evicts that frame.
	ReadCheck uint8 = 1
)

// Kinds of an OpReadPages answer.
const (
	// PageFull: the answer is the complete page image, shipped without its
	// zeros: a pagedelta sparse image (the runs of its non-zero bytes over
	// an all-zero page; empty for an all-zero page), or the raw image when
	// the runs would not be shorter. A payload of disk.PageSize bytes is
	// raw, a shorter one sparse. PageAnswers.Apply decodes either.
	PageFull uint8 = 0
	// PageDelta: the answer is a pagedelta patch transforming the image the
	// entry's token named into the current one.
	PageDelta uint8 = 2
)

// RespStale on a page-lock response (Response.Mode): the token the lock
// request carried in Request.N no longer matches the page's current
// version, so the client must revalidate its cached copy before reading it.
// On an OpBegin response: the horizon the request carried is too old for
// the change feed, so the client validates every cached frame.
const RespStale uint8 = 0x10

// Verdicts on the entries of an OpLock lock-ahead list.
const (
	// LockAheadRefused: the lock could not be had without waiting (a peer
	// holds or awaits the page); nothing was taken.
	LockAheadRefused uint8 = 0
	// LockAheadGranted: the lock is held and the entry's token is current.
	LockAheadGranted uint8 = 1
	// LockAheadStale: the lock is held, but the page has a newer committed
	// version than the entry's token: the client revalidates its copy before
	// it counts the lock as its own.
	LockAheadStale uint8 = 2
)

// PageEntryBytes is the wire size of one page entry, the element of an
// OpReadPages request and of OpLock's lock-ahead list: u32 page id, u64 token.
const PageEntryBytes = 4 + 8

// AppendPageEntry marshals one (pid, token) page entry onto dst.
func AppendPageEntry(dst []byte, pid uint32, token uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, pid)
	return binary.LittleEndian.AppendUint64(dst, token)
}

// PageEntryCount checks that data is a whole list of page entries and
// returns how many it holds.
func PageEntryCount(data []byte) (int, error) {
	if len(data)%PageEntryBytes != 0 {
		return 0, fmt.Errorf("esm: page entry list of %d bytes, not a multiple of %d", len(data), PageEntryBytes)
	}
	return len(data) / PageEntryBytes, nil
}

// PageEntry decodes entry i of a list PageEntryCount accepted.
func PageEntry(data []byte, i int) (pid uint32, token uint64) {
	e := data[i*PageEntryBytes:]
	return binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint64(e[4:])
}

// A commit payload is the Data of OpLog, OpCommit and OpPrepare: empty, or a
// log batch followed by a page section. The batch is a u32 count, then that
// many update bodies in the wire form (wal.AppendWire): the log's encoding
// less every before-image, which the server fills from its own page as it
// logs the record (Server.applyPayload). The page section holds one entry
// per page shipped whole:
//
//	u32 pid | u8 raw | u32 len | image
//
// where raw is 1 for a raw large-object page (no header, so never
// LSN-stamped) and 0 otherwise, and len | image is the page's sized image
// (pagedelta.AppendSizedImage): the sparse image, shorter than
// disk.PageSize, or the page itself when sparse is not shorter.
const payloadPageHead = 4 + 1

// Payload walks a commit payload ReadPayload checked: Record yields its
// records in order, then Page its whole pages.
type Payload struct {
	records int    // records not yet yielded
	rest    []byte // their bodies

	// The whole pages, their images checked: the first two inline, so
	// that a commit of up to two pages allocates nothing, the rest in more.
	// Page yields page next of npages.
	inline       [2]payloadPage
	more         []payloadPage
	next, npages int
}

// payloadPage is one entry of a payload's page section, its image checked.
type payloadPage struct {
	pid   uint32
	raw   bool
	image pagedelta.Image
}

// ReadPayload checks a commit payload whole — every record decodes and stays
// inside its page, every page entry is whole and its image well formed
// (pagedelta.ReadSizedImage) — and returns a walk over it.
func ReadPayload(data []byte) (Payload, error) {
	if len(data) == 0 {
		return Payload{}, nil
	}
	if len(data) < 4 {
		return Payload{}, errShortMessage
	}
	count, p := int(binary.LittleEndian.Uint32(data)), 4
	for i := 0; i < count; i++ {
		rec, n, err := wal.DecodeWire(data[p:])
		if err != nil {
			return Payload{}, fmt.Errorf("esm: log batch record %d: %w", i, err)
		}
		if err := rec.CheckRange(disk.PageSize); err != nil {
			return Payload{}, err
		}
		p += n
	}
	pl := Payload{records: count, rest: data[4:p]}
	for q := p; q < len(data); {
		if len(data)-q < payloadPageHead || data[q+4] > 1 {
			return Payload{}, fmt.Errorf("esm: malformed page section entry at byte %d", q)
		}
		image, n, err := pagedelta.ReadSizedImage(data[q+payloadPageHead:], disk.PageSize)
		if err != nil {
			return Payload{}, fmt.Errorf("esm: page section entry at byte %d: %w", q, err)
		}
		e := payloadPage{binary.LittleEndian.Uint32(data[q:]), data[q+4] == 1, image}
		if pl.npages < len(pl.inline) {
			pl.inline[pl.npages] = e
		} else {
			pl.more = append(pl.more, e)
		}
		pl.npages++
		q += payloadPageHead + n
	}
	return pl, nil
}

// Record returns the next record, in the wire form, false once every record
// was read. The record's images alias the payload.
func (p *Payload) Record() (wal.WireUpdate, bool) {
	if p.records == 0 {
		return wal.WireUpdate{}, false
	}
	rec, n, _ := wal.DecodeWire(p.rest) // checked by ReadPayload
	p.rest, p.records = p.rest[n:], p.records-1
	return rec, true
}

// Page returns the next whole page: its id, whether it is raw, and its
// image, checked and aliasing the payload.
func (p *Payload) Page() (pid uint32, raw bool, image pagedelta.Image, ok bool) {
	if p.next == p.npages {
		return 0, false, pagedelta.Image{}, false
	}
	var e payloadPage
	if p.next < len(p.inline) {
		e = p.inline[p.next]
	} else {
		e = p.more[p.next-len(p.inline)]
	}
	p.next++
	return e.pid, e.raw, e.image, true
}

// AppendPayloadPage appends page, one whole page, as its sparse image to the
// commit payload dst, which holds its whole log batch already (a count of 0
// for none). Every page the payload ships is encoded here.
func AppendPayloadPage(dst []byte, pid uint32, raw bool, page []byte) []byte {
	return pagedelta.AppendSizedImage(appendPayloadHead(dst, pid, raw), page)
}

// appendPayloadHead appends the head of a page entry, before its image.
func appendPayloadHead(dst []byte, pid uint32, raw bool) []byte {
	var flag byte
	if raw {
		flag = 1
	}
	return append(binary.LittleEndian.AppendUint32(dst, pid), flag)
}

// SplitPayload checks a commit payload and partitions it: each record and
// each page goes to the part its id names, under the id that id gives it;
// a page's image is copied through as it came. Each part is a commit
// payload of its own; order lists the parts in the order the payload first
// reaches them.
func SplitPayload(data []byte, part func(pid uint32) int, id func(pid uint32) uint32) (parts map[int][]byte, order []int, err error) {
	pl, err := ReadPayload(data)
	if err != nil {
		return nil, nil, err
	}
	parts = map[int][]byte{}
	to := func(pid uint32) int {
		k := part(pid)
		if parts[k] == nil {
			parts[k], order = make([]byte, 4), append(order, k)
		}
		return k
	}
	for rec, ok := pl.Record(); ok; rec, ok = pl.Record() {
		k := to(rec.Page)
		rec.Page = id(rec.Page)
		b := wal.AppendWire(parts[k], &rec)
		binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)+1)
		parts[k] = b
	}
	for pid, raw, image, ok := pl.Page(); ok; pid, raw, image, ok = pl.Page() {
		k := to(pid)
		parts[k] = pagedelta.AppendSized(appendPayloadHead(parts[k], id(pid), raw), image.Bytes())
	}
	return parts, order, nil
}

// An OpReadPages answer is
//
//	u32 n | stale bitmap, (n+7)/8 bytes | answers
//
// where n is the number of request entries, bit i of the bitmap says entry
// i's token is not current, and each answer is
//
//	u32 pid | u8 kind | u64 token | u32 len | payload
//
// one per stale entry, in request order. An entry's answer carries its new
// token (0: uncacheable) and, by kind, the page as a sparse image
// (PageFull: shorter than disk.PageSize, or exactly that long when raw) or
// as a patch of the copy the entry's token named (PageDelta). Only a
// ReadCheck entry may stay unanswered.
const answerHeadBytes = 4 + 1 + 8 + 4

// AppendAnswerHead appends the head of the answer to n entries, marking
// none stale, and returns the buffer and the offset of its bitmap.
func AppendAnswerHead(dst []byte, n int) (out []byte, bitmap int) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	bitmap = len(dst)
	return append(dst, make([]byte, (n+7)/8)...), bitmap
}

// MarkStale marks entry i stale in the answer whose bitmap is at dst[bitmap:].
func MarkStale(dst []byte, bitmap, i int) { dst[bitmap+i/8] |= 1 << (i % 8) }

// AppendAnswer appends the answer to a stale entry.
func AppendAnswer(dst []byte, pid uint32, kind uint8, token uint64, payload []byte) []byte {
	dst = appendAnswerHead(dst, pid, kind, token, len(payload))
	return append(dst, payload...)
}

func appendAnswerHead(dst []byte, pid uint32, kind uint8, token uint64, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, pid)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, token)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// AppendFullAnswer appends the PageFull answer that ships img, a whole page,
// as its sparse image (pagedelta.AppendImage), and returns the buffer and
// the payload's length. Every full answer is built here.
func AppendFullAnswer(dst []byte, pid uint32, token uint64, img []byte) ([]byte, int) {
	at := len(dst)
	dst = pagedelta.AppendImage(appendAnswerHead(dst, pid, PageFull, token, 0), img)
	n := len(dst) - at - answerHeadBytes
	binary.LittleEndian.PutUint32(dst[at+13:], uint32(n))
	return dst, n
}

// PageAnswers walks an OpReadPages answer together with the request entries
// it answers, one entry per Next, in request order, like wal.RegionIter;
// Err then tells a malformed answer from the end. Data aliases the answer,
// and nothing is allocated. The declared entry count must match the
// request's, so a short bitmap can never pass entries off as current, and an
// answer must name the page of a stale entry.
type PageAnswers struct {
	Index    int    // the request entry Next stands on
	Page     uint32 // its page id
	Stale    bool   // the token it presented is not current
	Answered bool   // a stale entry's answer follows: Kind, Token and Data
	Kind     uint8  // PageFull or PageDelta
	Token    uint64 // the answer's token; for an unanswered entry, the one it presented
	Data     []byte // the image or patch

	req, bitmap, rest []byte
	n                 int
	err               error
}

// ReadAnswers returns the walk of answer, the answer to the OpReadPages
// request whose entries are req.
func ReadAnswers(req, answer []byte) PageAnswers {
	a := PageAnswers{Index: -1, req: req}
	if a.n, a.err = PageEntryCount(req); a.err != nil {
		return a
	}
	switch bm := 4 + (a.n+7)/8; {
	case len(answer) < bm:
		a.err = errShortMessage
	case binary.LittleEndian.Uint32(answer) != uint32(a.n):
		a.err = fmt.Errorf("esm: read answer declares %d entries, the request has %d", binary.LittleEndian.Uint32(answer), a.n)
	default:
		a.bitmap, a.rest = answer[4:bm], answer[bm:]
	}
	return a
}

// Next advances to the next request entry and reports whether there is one.
// A malformed answer ends the walk; Err tells the two endings apart.
func (a *PageAnswers) Next() bool {
	if a.err != nil || a.Index+1 > a.n {
		return false
	}
	a.Index++
	if a.Index == a.n {
		if len(a.rest) != 0 {
			a.err = fmt.Errorf("esm: %d bytes of read answers no stale entry takes", len(a.rest))
		}
		return false
	}
	a.Page, a.Token = PageEntry(a.req, a.Index)
	a.Stale = a.bitmap[a.Index/8]&(1<<(a.Index%8)) != 0
	a.Answered, a.Kind, a.Data = false, PageFull, nil
	if !a.Stale || len(a.rest) == 0 {
		return true
	}
	if len(a.rest) < answerHeadBytes {
		a.err = fmt.Errorf("esm: truncated read answer head for entry %d", a.Index)
		return false
	}
	if binary.LittleEndian.Uint32(a.rest) != a.Page {
		return true // unanswered: the answer is a later stale entry's
	}
	n := binary.LittleEndian.Uint32(a.rest[13:])
	if uint64(len(a.rest)-answerHeadBytes) < uint64(n) {
		a.err = fmt.Errorf("esm: truncated read answer for page %d (%d of %d bytes)", a.Page, len(a.rest)-answerHeadBytes, n)
		return false
	}
	a.Answered, a.Kind, a.Token = true, a.rest[4], binary.LittleEndian.Uint64(a.rest[5:])
	a.Data = a.rest[answerHeadBytes : answerHeadBytes+int(n) : answerHeadBytes+int(n)]
	a.rest = a.rest[answerHeadBytes+int(n):]
	return true
}

// Err reports, once Next has returned false, whether the walk stopped on a
// malformed answer rather than after the last entry.
func (a *PageAnswers) Err() error { return a.err }

// Apply brings page, one page long, to the image the answer Next stands on
// carries: a full answer's sparse or raw image is decoded over it, a delta
// patched onto the bytes the entry's token named. A missing or malformed
// answer is refused before any byte of page is written.
func (a *PageAnswers) Apply(page []byte) error {
	switch {
	case !a.Answered:
		return fmt.Errorf("esm: page %d is stale and was not answered", a.Page)
	case a.Kind == PageDelta:
		if err := pagedelta.Apply(page, a.Data); err != nil {
			return fmt.Errorf("esm: delta repair of page %d: %w", a.Page, err)
		}
	case a.Kind == PageFull:
		if err := pagedelta.ApplyImage(page, a.Data); err != nil {
			return fmt.Errorf("esm: image of page %d: %w", a.Page, err)
		}
	default:
		return fmt.Errorf("esm: page %d answered with %d bytes of kind %d", a.Page, len(a.Data), a.Kind)
	}
	return nil
}

// Request is one client-to-server message.
type Request struct {
	Op   Op
	Tx   uint64
	Page uint32 // page id / file id, per op
	N    uint64 // count / counter delta, per op
	Mode uint8  // lock mode / resource kind / flags
	Name string // counter or file name, or the root of a directory read
	Data []byte // page entries, commit payload, or change-feed horizon, per op
}

// Response is one server-to-client message.
//
// A Response may own a pooled buffer its Data lies in: the page-read and
// change-feed answers a Server builds, and every response MuxTransport
// decodes. Whoever holds a Response last calls Release once done with it;
// one nobody releases is left to the garbage collector, which costs what an
// unpooled one does.
type Response struct {
	Err  string
	Page uint32
	N    uint64
	Mode uint8 // invalidation flags (coherence)
	Data []byte

	pooled bool    // the Response came from respPool: Release hands it back
	buf    *[]byte // the pooled buffer Data lies in, if any
}

var respPool = sync.Pool{New: func() interface{} { return new(Response) }}

// pooledResponse returns an empty Response from the pool, owning nothing.
func pooledResponse() *Response {
	r := respPool.Get().(*Response)
	r.pooled = true
	return r
}

// PooledResponse returns an empty Response from the pool, for a Handler
// outside this package whose answer should cost no allocation: whoever
// holds it last calls Release (Serve's worker after framing it, or the
// caller of an in-process Handle).
func PooledResponse() *Response { return pooledResponse() }

// Release sets Data to nil and hands the buffer it lay in, and a pooled
// Response itself, back for reuse: nothing of the Response may be used
// afterwards. A second Release is a no-op; so is one on a nil Response. A
// copy of a Response shares its buffer: release one of the two, not both.
func (r *Response) Release() {
	if r == nil {
		return
	}
	r.Data = nil
	if r.buf != nil {
		putBuf(r.buf)
		r.buf = nil
	}
	if r.pooled {
		*r = Response{}
		respPool.Put(r)
	}
}

// Transport delivers requests to a server and returns responses. The
// in-process and multiplexed-TCP transports both satisfy it.
// A Transport is safe for concurrent use by multiple goroutines: one socket
// may carry several whole client sessions. Once Call returns, with an answer
// or an error, the Transport no longer reads req or its Data, so the caller
// may reuse them.
type Transport interface {
	Call(req *Request) (*Response, error)
	Close() error
}

// Wire format. Every message travels in one frame:
//
//	u32 n    — little-endian length of the rest of the frame (seq + body)
//	u64 seq  — multiplexing sequence number, chosen by the client
//	body     — one marshaled Request (client→server) or Response (reverse)
//
// The server echoes the request's seq on its response, and responses may
// arrive in any order: the client demultiplexes on seq. Sequence numbers
// are per-connection and never reused while a call is outstanding. A frame
// that cannot be parsed far enough to recover a seq (runt or oversized
// length) leaves the stream unsynchronizable, so both sides drop the
// connection rather than guess.
const (
	frameLenSize = 4
	frameSeqSize = 8
	frameHdrSize = frameLenSize + frameSeqSize
	maxFrame     = 1 << 30
)

var errShortMessage = errors.New("esm: short protocol message")

// bufPool recycles frame, marshal and answer buffers across calls and
// connections (*[]byte, not []byte, so Put does not allocate a slice header).
// Buffers that grew past maxPooledBuf are dropped instead of pooled.
const maxPooledBuf = 4 << 20

// readWindow is a fresh bufPool buffer's capacity and each connection reader's
// bufio window, which a body this large or larger skips on its way to its buffer.
const readWindow = 16 << 10

var bufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, readWindow)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if p == nil || cap(*p) > maxPooledBuf {
		return
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}

// appendFrameHeader appends a zero length word and seq, and returns the
// extended buffer plus the offset where patchFrameLen writes the length
// once the body is in place.
func appendFrameHeader(dst []byte, seq uint64) ([]byte, int) {
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return binary.LittleEndian.AppendUint64(dst, seq), lenAt
}

func patchFrameLen(dst []byte, lenAt int) []byte {
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-frameLenSize))
	return dst
}

// appendRequestFrame appends one complete framed request to dst. It never
// allocates beyond growing dst, so a pooled flush buffer makes the encode
// path allocation-free in steady state.
func appendRequestFrame(dst []byte, seq uint64, r *Request) []byte {
	dst, lenAt := appendFrameHeader(dst, seq)
	return patchFrameLen(r.appendTo(dst), lenAt)
}

// appendResponseFrame appends one complete framed response to dst.
func appendResponseFrame(dst []byte, seq uint64, r *Response) []byte {
	dst, lenAt := appendFrameHeader(dst, seq)
	return patchFrameLen(r.appendTo(dst), lenAt)
}

// readFrame reads one frame's head into hdr, then its body into a buffer
// taken from bufPool only once the body is on its way, so an idle connection
// holds none. The caller owns frame, which body lies in, and putBufs it.
func readFrame(r io.Reader, hdr []byte) (seq uint64, frame *[]byte, body []byte, err error) {
	seq, n, err := readFrameHead(r, hdr)
	if err != nil {
		return 0, nil, nil, err
	}
	frame = getBuf()
	if body, err = readFrameBody(r, frame, n); err != nil {
		putBuf(frame)
		return 0, nil, nil, err
	}
	return seq, frame, body, nil
}

// readFrameHead reads a frame's length and seq into hdr and returns the seq
// and the length of the body that follows.
func readFrameHead(r io.Reader, hdr []byte) (seq uint64, bodyLen int, err error) {
	if _, err := io.ReadFull(r, hdr[:frameLenSize]); err != nil {
		return 0, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:frameLenSize])
	if n < frameSeqSize {
		return 0, 0, fmt.Errorf("esm: runt frame (%d bytes, need at least the %d-byte seq)", n, frameSeqSize)
	}
	if n > maxFrame {
		return 0, 0, fmt.Errorf("esm: oversized frame (%d bytes)", n)
	}
	if _, err := io.ReadFull(r, hdr[frameLenSize:frameHdrSize]); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(hdr[frameLenSize:]), int(n) - frameSeqSize, nil
}

// readFrameBody reads a bodyLen-byte frame body into *scratch and returns
// it.
func readFrameBody(r io.Reader, scratch *[]byte, bodyLen int) ([]byte, error) {
	buf := *scratch
	if cap(buf) >= bodyLen {
		buf = buf[:bodyLen]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	// The buffer must grow. Grow it as bytes actually arrive rather than
	// trusting the length prefix up front: a 12-byte header claiming a 1GB
	// body must not commit a 1GB allocation before the peer has sent
	// anything (the stream usually ends long before). The first step is
	// 1 MB, each next one doubles what arrived, and once doubling would
	// reach half the body the buffer takes the whole of it: every step
	// before the last sums to under bodyLen, so a body costs under twice
	// its size, and bodyLen is committed only after a quarter of it came.
	const firstStep = 1 << 20
	buf = buf[:0]
	for len(buf) < bodyLen {
		size := min(bodyLen, firstStep)
		if len(buf) > 0 {
			if size = 2 * len(buf); 2*size >= bodyLen {
				size = bodyLen
			}
		}
		grown := make([]byte, size)
		start := copy(grown, buf)
		buf = grown
		*scratch = buf
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendTo marshals the request body (no frame header) onto dst.
func (r *Request) appendTo(dst []byte) []byte {
	var tmp [8]byte
	dst = append(dst, byte(r.Op), r.Mode)
	binary.LittleEndian.PutUint64(tmp[:], r.Tx)
	dst = append(dst, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], r.Page)
	dst = append(dst, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:], r.N)
	dst = append(dst, tmp[:]...)
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(r.Name)))
	dst = append(dst, tmp[:2]...)
	dst = append(dst, r.Name...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(r.Data)))
	dst = append(dst, tmp[:4]...)
	dst = append(dst, r.Data...)
	return dst
}

func (r *Request) marshal() []byte { return r.appendTo(make([]byte, 0, 32+len(r.Name)+len(r.Data))) }

// unmarshal decodes buf into r. With copyData false, r.Data aliases buf:
// the caller owns buf for the lifetime of r (the server's per-request
// frame buffers rely on this — handlers never retain request data past
// the call).
func (r *Request) unmarshal(buf []byte, copyData bool) error {
	if len(buf) < 24 {
		return errShortMessage
	}
	r.Op = Op(buf[0])
	r.Mode = buf[1]
	r.Tx = binary.LittleEndian.Uint64(buf[2:])
	r.Page = binary.LittleEndian.Uint32(buf[10:])
	r.N = binary.LittleEndian.Uint64(buf[14:])
	nameLen := int(binary.LittleEndian.Uint16(buf[22:]))
	p := 24
	if len(buf) < p+nameLen+4 {
		return errShortMessage
	}
	if nameLen > 0 {
		r.Name = string(buf[p : p+nameLen])
	} else {
		r.Name = ""
	}
	p += nameLen
	dataLen := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4
	if len(buf) < p+dataLen {
		return errShortMessage
	}
	switch {
	case dataLen == 0:
		r.Data = nil
	case copyData:
		r.Data = append([]byte(nil), buf[p:p+dataLen]...)
	default:
		r.Data = buf[p : p+dataLen : p+dataLen]
	}
	return nil
}

func unmarshalRequest(buf []byte) (*Request, error) {
	r := new(Request)
	if err := r.unmarshal(buf, true); err != nil {
		return nil, err
	}
	return r, nil
}

// appendTo marshals the response body (no frame header) onto dst.
func (r *Response) appendTo(dst []byte) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint16(tmp[:2], uint16(len(r.Err)))
	dst = append(dst, tmp[:2]...)
	dst = append(dst, r.Err...)
	binary.LittleEndian.PutUint32(tmp[:4], r.Page)
	dst = append(dst, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:], r.N)
	dst = append(dst, tmp[:]...)
	dst = append(dst, r.Mode)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(r.Data)))
	dst = append(dst, tmp[:4]...)
	dst = append(dst, r.Data...)
	return dst
}

func (r *Response) marshal() []byte { return r.appendTo(make([]byte, 0, 20+len(r.Err)+len(r.Data))) }

// unmarshal decodes buf into r. With copyData false, r.Data aliases buf.
func (r *Response) unmarshal(buf []byte, copyData bool) error {
	if len(buf) < 2 {
		return errShortMessage
	}
	errLen := int(binary.LittleEndian.Uint16(buf[0:]))
	p := 2
	if len(buf) < p+errLen+17 {
		return errShortMessage
	}
	if errLen > 0 {
		r.Err = string(buf[p : p+errLen])
	} else {
		r.Err = ""
	}
	p += errLen
	r.Page = binary.LittleEndian.Uint32(buf[p:])
	r.N = binary.LittleEndian.Uint64(buf[p+4:])
	r.Mode = buf[p+12]
	dataLen := int(binary.LittleEndian.Uint32(buf[p+13:]))
	p += 17
	if len(buf) < p+dataLen {
		return errShortMessage
	}
	switch {
	case dataLen == 0:
		r.Data = nil
	case copyData:
		r.Data = append([]byte(nil), buf[p:p+dataLen]...)
	default:
		r.Data = buf[p : p+dataLen : p+dataLen]
	}
	return nil
}

func unmarshalResponse(buf []byte) (*Response, error) {
	r := new(Response)
	if err := r.unmarshal(buf, true); err != nil {
		return nil, err
	}
	return r, nil
}

// InProcTransport calls straight into a server living in the same process.
// This is the default for benchmarks: the network cost is charged by the
// cost model, so a real socket would only add nondeterminism.
type InProcTransport struct {
	srv *Server
}

// NewInProcTransport returns a transport bound to srv.
func NewInProcTransport(srv *Server) *InProcTransport { return &InProcTransport{srv: srv} }

// Call implements Transport.
func (t *InProcTransport) Call(req *Request) (*Response, error) {
	return t.srv.Handle(req), nil
}

// Close implements Transport.
func (t *InProcTransport) Close() error { return nil }
