package protocol

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"coca/internal/core"
	"coca/internal/overload"
	"coca/internal/telemetry"
	"coca/internal/transport"
)

// SessionClient implements core.Coordinator over a transport connection
// with the session protocol: Open performs the Hello handshake
// (negotiating the wire version and obtaining a server session id) and
// returns a core.Session whose Allocate receives versioned deltas. One connection
// can carry several sessions; round trips are serialized on the
// connection, matching the strictly request/response wire format.
type SessionClient struct {
	conn transport.Conn
	// expected model shape, sent with Hello for server-side validation.
	numClasses, numLayers int

	mu sync.Mutex // serializes round trips; guards enc, dec and proto
	// proto is the wire version negotiated at Open (0 before the first
	// handshake, meaning the build's latest). Frames after the handshake
	// are encoded at this version, so a v2 server keeps receiving v2
	// frames and deadlines are simply not propagated to it.
	proto byte
	// enc and dec are the connection's pooled codec scratch: requests are
	// encoded into a reused buffer and replies decoded into reused arenas,
	// so steady-state round trips allocate nothing in the codec.
	enc []byte
	dec Decoder
}

// NewSessionClient wraps a connection. numClasses/numLayers describe the
// client's model and are validated by the server at session open.
func NewSessionClient(conn transport.Conn, numClasses, numLayers int) *SessionClient {
	return &SessionClient{conn: conn, numClasses: numClasses, numLayers: numLayers}
}

// roundTrip performs one serialized request/response exchange and hands
// the decoded reply to consume WHILE STILL HOLDING the connection lock.
// The reply lives in connection-owned decoder scratch that the next round
// trip — possibly from another session sharing this connection —
// overwrites, so consume must copy out everything its caller keeps. The
// context gates entry only: an exchange already in flight is not
// interrupted (the transport has no per-frame cancellation), so a
// stalled server holds the call until the connection is closed.
func (c *SessionClient) roundTrip(ctx context.Context, req *Message, consume func(*Message) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	frame, err := AppendEncode(c.enc[:0], req)
	if err != nil {
		return err
	}
	c.enc = frame[:0]
	if err := c.conn.Send(frame); err != nil {
		return err
	}
	resp, err := c.conn.Recv()
	if err != nil {
		return err
	}
	m, err := c.dec.Decode(resp)
	if err != nil {
		return err
	}
	if m.Type == TypeError {
		return fmt.Errorf("protocol: server error: %s", m.Error)
	}
	if m.Type == TypeRedirect && m.Redirect != nil {
		// Decoded strings are fresh allocations, not decoder scratch, so
		// the error may outlive this round trip.
		return &core.RedirectError{Addr: m.Redirect.Addr, Reason: m.Redirect.Reason}
	}
	return consume(m)
}

// negotiated returns the wire version agreed at Open (the build's latest
// before any handshake).
func (c *SessionClient) negotiated() byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.proto == 0 {
		return Version
	}
	return c.proto
}

// deadlineMicros extracts ctx's deadline for a frame header when the
// negotiated version carries one (v3+); 0 otherwise.
func (c *SessionClient) deadlineMicros(ctx context.Context) uint64 {
	if c.negotiated() < V3 {
		return 0
	}
	if t, ok := ctx.Deadline(); ok {
		return overload.DeadlineMicros(t)
	}
	return 0
}

// Open implements core.Coordinator: it registers the client and returns
// its wire-backed session. The Hello is framed at v2 — the lowest live
// session format, readable by any session server — and offers the
// build's highest version in Proto; the server answers with its choice,
// which this connection's later frames are encoded at.
func (c *SessionClient) Open(ctx context.Context, clientID int) (core.Session, error) {
	var sess *wireSession
	err := c.roundTrip(ctx, &Message{
		Version:  V2,
		Type:     TypeHello,
		ClientID: int32(clientID),
		Proto:    Version,
		Hello:    &Hello{NumClasses: int32(c.numClasses), NumLayers: int32(c.numLayers)},
	}, func(m *Message) error {
		if m.Type != TypeHelloAck || m.HelloAck == nil {
			return fmt.Errorf("protocol: unexpected reply type %d to hello", m.Type)
		}
		if m.Proto < V2 || m.Proto > Version {
			return fmt.Errorf("protocol: server negotiated unsupported version %d", m.Proto)
		}
		c.proto = m.Proto // under c.mu: roundTrip holds it through consume
		if m.SessionID == 0 {
			return fmt.Errorf("protocol: server did not assign a session id")
		}
		// The decoded ack lives in the connection's decoder scratch; the
		// session retains its registration info, so copy it out.
		info := *m.HelloAck
		info.ProfileHitRatio = append([]float64(nil), m.HelloAck.ProfileHitRatio...)
		info.SavedMs = append([]float64(nil), m.HelloAck.SavedMs...)
		sess = &wireSession{
			c:        c,
			id:       m.SessionID,
			clientID: int32(clientID),
			info:     info,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sess, nil
}

// Close releases the connection (and with it every session opened on it).
func (c *SessionClient) Close() error { return c.conn.Close() }

var _ core.Coordinator = (*SessionClient)(nil)

// wireSession is the client-side handle to one server session.
type wireSession struct {
	c        *SessionClient
	id       uint64
	clientID int32
	info     core.RegisterInfo

	mu     sync.Mutex
	closed bool

	// Reply-copy scratch: deltas are copied out of the connection's
	// shared decoder under its lock into these session-owned buffers
	// (sessions are used sequentially by one client, so one set per
	// session suffices). The returned Delta is valid until this session's
	// next Allocate.
	classes, sites []int
	cells          []core.DeltaCell
	evict          []core.CellRef
	arena          []float32
}

// copyDelta deep-copies a decoded delta into the session's scratch.
// Vectors land in one flat arena; if the arena grows mid-copy, earlier
// cells keep the old backing (already holding their copied values).
func (s *wireSession) copyDelta(src *core.Delta) core.Delta {
	d := core.Delta{
		Version:     src.Version,
		BaseVersion: src.BaseVersion,
		Full:        src.Full,
	}
	s.classes = append(s.classes[:0], src.Classes...)
	s.sites = append(s.sites[:0], src.Sites...)
	s.evict = append(s.evict[:0], src.Evict...)
	s.cells = s.cells[:0]
	s.arena = s.arena[:0]
	for _, c := range src.Cells {
		start := len(s.arena)
		s.arena = append(s.arena, c.Vec...)
		s.cells = append(s.cells, core.DeltaCell{
			Site: c.Site, Class: c.Class,
			Vec: s.arena[start:len(s.arena):len(s.arena)],
		})
	}
	if len(s.classes) > 0 {
		d.Classes = s.classes
	}
	if len(s.sites) > 0 {
		d.Sites = s.sites
	}
	if len(s.cells) > 0 {
		d.Cells = s.cells
	}
	if len(s.evict) > 0 {
		d.Evict = s.evict
	}
	return d
}

// Info implements core.Session.
func (s *wireSession) Info() core.RegisterInfo { return s.info }

func (s *wireSession) check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("protocol: session %d closed", s.id)
	}
	return nil
}

// Allocate implements core.Session. The returned delta lives in
// session-owned scratch (copied out of the connection's shared decoder
// under its lock, so sessions sharing one connection cannot tear each
// other's replies) and is valid until this session's next Allocate;
// core.AllocView.Apply copies what it keeps.
func (s *wireSession) Allocate(ctx context.Context, status core.StatusReport) (core.Delta, error) {
	if err := s.check(); err != nil {
		return core.Delta{}, err
	}
	var d core.Delta
	err := s.c.roundTrip(ctx, &Message{
		Version:        s.c.negotiated(),
		Type:           TypeStatus,
		ClientID:       s.clientID,
		SessionID:      s.id,
		DeadlineMicros: s.c.deadlineMicros(ctx),
		Status:         &status,
	}, func(m *Message) error {
		if m.Type != TypeDelta || m.Delta == nil {
			return fmt.Errorf("protocol: unexpected reply type %d to status", m.Type)
		}
		d = s.copyDelta(m.Delta)
		return nil
	})
	if err != nil {
		return core.Delta{}, err
	}
	return d, nil
}

// Upload implements core.Session.
func (s *wireSession) Upload(ctx context.Context, upd core.UpdateReport) error {
	if err := s.check(); err != nil {
		return err
	}
	return s.c.roundTrip(ctx, &Message{
		Version:        s.c.negotiated(),
		Type:           TypeUpdate,
		ClientID:       s.clientID,
		SessionID:      s.id,
		DeadlineMicros: s.c.deadlineMicros(ctx),
		Update:         &upd,
	}, func(m *Message) error {
		if m.Type != TypeAck {
			return fmt.Errorf("protocol: unexpected reply type %d to update", m.Type)
		}
		return nil
	})
}

// Close implements core.Session: it sends Bye so the server can release
// the session. Transport failures are tolerated — the connection may
// already be gone, which releases the session server-side anyway.
func (s *wireSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Bye is best-effort: the connection may already be gone, which
	// releases the session server-side anyway.
	_ = s.c.roundTrip(context.Background(), &Message{
		Version: s.c.negotiated(), Type: TypeBye, ClientID: s.clientID, SessionID: s.id,
	}, func(*Message) error { return nil })
	return nil
}

var _ core.Session = (*wireSession)(nil)

// PeerHandler is implemented by coordinators that also participate in the
// federation tier (federation.Node): ServeConn routes TypePeerHello,
// TypePeerDelta, TypePeerJoin and TypePeerLeave frames to it. Coordinators
// without PeerHandler reject peer frames with an error reply.
type PeerHandler interface {
	// HandlePeerHello validates a peer link request and returns the local
	// node's federation id.
	HandlePeerHello(nodeID, numClasses, numLayers int) (localID int, err error)
	// HandlePeerDelta merges a peer's delta (changed cells and frequency
	// increments) and returns how many cells were applied.
	HandlePeerDelta(d *PeerDelta) (applied int, err error)
	// HandlePeerJoin admits a joining node: it validates like a hello,
	// registers the joiner (and its sync address) with the local
	// membership, and returns the bootstrap snapshot when one was asked
	// for (an empty snapshot otherwise). The snapshot must remain valid
	// through the reply encode — implementations return caller-owned
	// slices, not reusable scratch.
	HandlePeerJoin(j *PeerJoin) (snap *PeerSnapshot, err error)
	// HandlePeerLeave records a peer's clean departure.
	HandlePeerLeave(nodeID int)
}

// AntiEntropyHandler is the optional extension of PeerHandler that serves
// the v4 pull anti-entropy frames. Replies must remain valid through the
// reply encode (the next call on the same handler may reuse scratch).
// Coordinators without it reject digest frames with an error reply, which
// the requester treats like an old-version peer.
type AntiEntropyHandler interface {
	// HandlePeerDigestRequest compares the requester's per-class row sums
	// against the local ledger and returns per-origin detail for the rows
	// that disagree (applying any piggybacked gossip).
	HandlePeerDigestRequest(q *PeerDigestRequest) (*PeerDigest, error)
	// HandlePeerPull serves a want-list: the requested cells still ahead
	// of the requester's stated heights.
	HandlePeerPull(q *PeerDigestRequest) (*PeerPullResponse, error)
}

// PeerClient is the dialing side of a federation peer link: it performs
// the PeerHello handshake over a transport connection and ships deltas.
// Round trips are serialized on the connection.
type PeerClient struct {
	conn transport.Conn
	// localID is this node's federation id; peerID is learned from the
	// handshake ack.
	localID int
	peerID  int
	// proto is the wire version negotiated at the handshake (0 before it,
	// treated as V2 — the lowest peer-plane version). Deltas to a v4 peer
	// carry origin tags and gossip; older peers get the v2 byte stream.
	proto byte

	mu sync.Mutex // serializes round trips; guards enc and dec
	// enc and dec are reused across deltas: a sync round encodes into the
	// same buffer and decodes acks into the same arenas every time.
	enc []byte
	dec Decoder
	// lastRespBytes is the most recent reply frame's size (guarded by mu;
	// read by the anti-entropy round trips for byte accounting).
	lastRespBytes int
}

// Negotiated returns the wire version agreed at the handshake (V2 before
// any handshake completed).
func (pc *PeerClient) Negotiated() byte {
	if pc.proto == 0 {
		return V2
	}
	return pc.proto
}

// DialPeer performs the PeerHello handshake for the node localID over an
// established connection, validating model agreement (numClasses ×
// numLayers) and protocol version, and returns the link.
func DialPeer(conn transport.Conn, localID, numClasses, numLayers int) (*PeerClient, error) {
	pc := &PeerClient{conn: conn, localID: localID}
	m, err := pc.roundTrip(&Message{
		Version: V2, // the peer sync plane is v2-framed (no deadlines)
		Type:    TypePeerHello,
		Proto:   Version,
		PeerHello: &PeerHello{
			NodeID:     int32(localID),
			NumClasses: int32(numClasses),
			NumLayers:  int32(numLayers),
		},
	})
	if err != nil {
		return nil, err
	}
	if m.Type != TypePeerAck || m.PeerAck == nil {
		return nil, fmt.Errorf("protocol: unexpected reply type %d to peer hello", m.Type)
	}
	if m.Proto < V2 || m.Proto > Version {
		return nil, fmt.Errorf("protocol: peer negotiated unsupported version %d", m.Proto)
	}
	pc.proto = m.Proto
	pc.peerID = int(m.PeerAck.NodeID)
	return pc, nil
}

// JoinPeer performs the PeerJoin handshake for node localID over an
// established connection: like DialPeer, but the reply is the peer's
// bootstrap snapshot (when wantSnapshot is set) and the joiner's own
// listen address travels with the request so the peer starts syncing back.
// The returned link is handshaken — deltas may be sent on it. The
// snapshot lives in the link's decoder scratch and is valid only until
// the next round trip on this link: apply it before syncing. snapBytes is
// the received snapshot frame size (the joiner's bootstrap traffic).
func JoinPeer(conn transport.Conn, localID, numClasses, numLayers int, addr string, wantSnapshot bool) (pc *PeerClient, snap *PeerSnapshot, snapBytes int, err error) {
	pc = &PeerClient{conn: conn, localID: localID}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	frame, err := AppendEncode(pc.enc[:0], &Message{
		Version: V2, // the peer sync plane is v2-framed (no deadlines)
		Type:    TypePeerJoin,
		Proto:   Version,
		PeerJoin: &PeerJoin{
			NodeID:       int32(localID),
			NumClasses:   int32(numClasses),
			NumLayers:    int32(numLayers),
			Addr:         addr,
			WantSnapshot: wantSnapshot,
		},
	})
	if err != nil {
		return nil, nil, 0, err
	}
	pc.enc = frame[:0]
	if err := pc.conn.Send(frame); err != nil {
		return nil, nil, 0, err
	}
	resp, err := pc.conn.Recv()
	if err != nil {
		return nil, nil, 0, err
	}
	m, err := pc.dec.Decode(resp)
	if err != nil {
		return nil, nil, 0, err
	}
	if m.Type == TypeError {
		return nil, nil, 0, fmt.Errorf("protocol: peer error: %s", m.Error)
	}
	if m.Type != TypePeerSnapshot || m.PeerSnapshot == nil {
		return nil, nil, 0, fmt.Errorf("protocol: unexpected reply type %d to peer join", m.Type)
	}
	if m.Proto < V2 || m.Proto > Version {
		return nil, nil, 0, fmt.Errorf("protocol: peer negotiated unsupported version %d", m.Proto)
	}
	pc.proto = m.Proto
	pc.peerID = int(m.PeerSnapshot.NodeID)
	return pc, m.PeerSnapshot, len(resp), nil
}

// Leave announces a clean departure to the peer (best-effort: callers
// typically ignore the error — the connection may already be gone, which
// the peer's failure detector handles anyway).
func (pc *PeerClient) Leave() error {
	m, err := pc.roundTrip(&Message{
		Version:   pc.Negotiated(),
		Type:      TypePeerLeave,
		PeerLeave: &PeerLeave{NodeID: int32(pc.localID)},
	})
	if err != nil {
		return err
	}
	if m.Type != TypePeerAck {
		return fmt.Errorf("protocol: unexpected reply type %d to peer leave", m.Type)
	}
	return nil
}

// PeerID returns the remote node's federation id (from the handshake ack).
func (pc *PeerClient) PeerID() int { return pc.peerID }

func (pc *PeerClient) roundTrip(req *Message) (*Message, error) {
	m, _, err := pc.roundTripSized(req)
	return m, err
}

// roundTripSized is roundTrip plus the encoded request size, which the
// federation tier reports as sync traffic.
func (pc *PeerClient) roundTripSized(req *Message) (*Message, int, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	frame, err := AppendEncode(pc.enc[:0], req)
	if err != nil {
		return nil, 0, err
	}
	pc.enc = frame[:0]
	if err := pc.conn.Send(frame); err != nil {
		return nil, len(frame), err
	}
	resp, err := pc.conn.Recv()
	if err != nil {
		return nil, len(frame), err
	}
	pc.lastRespBytes = len(resp)
	m, err := pc.dec.Decode(resp)
	if err != nil {
		return nil, len(frame), err
	}
	if m.Type == TypeError {
		return nil, len(frame), fmt.Errorf("protocol: peer error: %s", m.Error)
	}
	return m, len(frame), nil
}

// SendDelta ships changed cells and frequency increments to the peer and
// returns how many cells it applied plus the encoded frame size in bytes
// (the sync-traffic measurement the federation experiments report). The
// frame is encoded at the negotiated version, so origin tags and gossip
// reach v4 peers and are silently dropped for older ones.
func (pc *PeerClient) SendDelta(epoch uint64, cells []PeerCell, freq []float64, gossip []MemberUpdate) (applied, wireBytes int, err error) {
	m, wireBytes, err := pc.roundTripSized(&Message{
		Version:   pc.Negotiated(),
		Type:      TypePeerDelta,
		PeerDelta: &PeerDelta{NodeID: int32(pc.localID), Epoch: epoch, Cells: cells, Freq: freq, Gossip: gossip},
	})
	if err != nil {
		return 0, wireBytes, err
	}
	if m.Type != TypePeerAck || m.PeerAck == nil {
		return 0, wireBytes, fmt.Errorf("protocol: unexpected reply type %d to peer delta", m.Type)
	}
	return int(m.PeerAck.Applied), wireBytes, nil
}

// ErrPeerTooOld reports that the link's negotiated version predates pull
// anti-entropy; callers skip anti-entropy on such links and rely on push.
var ErrPeerTooOld = errors.New("protocol: peer speaks a pre-v4 version without anti-entropy")

// SendDigestRequest opens a pull anti-entropy exchange: it ships the
// requester's per-class row sums (plus gossip) and returns the peer's
// digest detail for disagreeing rows. The reply lives in the link's
// decoder scratch and is valid only until the next round trip; reqBytes
// and respBytes are the two frames' encoded sizes.
func (pc *PeerClient) SendDigestRequest(q *PeerDigestRequest) (digest *PeerDigest, reqBytes, respBytes int, err error) {
	if pc.Negotiated() < V4 {
		return nil, 0, 0, ErrPeerTooOld
	}
	q.NodeID = int32(pc.localID)
	m, n, err := pc.roundTripSized(&Message{Version: pc.Negotiated(), Type: TypePeerDigestRequest, PeerDigestRequest: q})
	if err != nil {
		return nil, n, 0, err
	}
	if m.Type != TypePeerDigest || m.PeerDigest == nil {
		return nil, n, 0, fmt.Errorf("protocol: unexpected reply type %d to peer digest request", m.Type)
	}
	return m.PeerDigest, n, pc.lastRespBytes, nil
}

// SendPull continues the exchange: it ships the want-list (a digest
// request with Wants set) and returns the peer's pull response. The reply
// lives in the link's decoder scratch and is valid only until the next
// round trip.
func (pc *PeerClient) SendPull(q *PeerDigestRequest) (pull *PeerPullResponse, reqBytes, respBytes int, err error) {
	if pc.Negotiated() < V4 {
		return nil, 0, 0, ErrPeerTooOld
	}
	q.NodeID = int32(pc.localID)
	m, n, err := pc.roundTripSized(&Message{Version: pc.Negotiated(), Type: TypePeerDigestRequest, PeerDigestRequest: q})
	if err != nil {
		return nil, n, 0, err
	}
	if m.Type != TypePeerPullResponse || m.PeerPullResponse == nil {
		return nil, n, 0, fmt.Errorf("protocol: unexpected reply type %d to peer pull", m.Type)
	}
	return m.PeerPullResponse, n, pc.lastRespBytes, nil
}

// Close releases the underlying connection.
func (pc *PeerClient) Close() error { return pc.conn.Close() }

// connState tracks everything a connection's sessions own, so it can be
// released when the peer disconnects.
type connState struct {
	coord    core.Coordinator
	sessions map[uint64]core.Session
	// peerHello records that the connection completed a federation peer
	// handshake (gates TypePeerDelta); peerProto is the version negotiated
	// by that handshake (min of the peer's offer and this build), which
	// replies on this connection are framed at and which gates the v4
	// anti-entropy frames.
	peerHello bool
	peerProto byte
	// enc and dec are the connection's pooled codec scratch: requests
	// decode into reused arenas (handlers consume them before the next
	// frame) and replies encode into one reused buffer (the transport
	// does not retain frames past Send).
	enc []byte
	dec Decoder
}

func (cs *connState) closeAll() {
	for _, s := range cs.sessions {
		_ = s.Close()
	}
}

// ServeConn drives one client connection against the coordinator until
// the peer disconnects or ctx is canceled (which closes the connection
// and drains the handler). It speaks every live wire version, keyed per
// frame. Malformed requests — frames of a retired version included —
// receive a TypeError reply naming the problem; transport failures end
// the session. It returns nil on orderly shutdown.
//
// Every allocation served here is encoded for a remote client, so ctx is
// marked core.ForWire once: the server extracts those cells without probe
// staging, since the wire ships entries alone and the client's view
// restages them on apply.
func ServeConn(ctx context.Context, conn transport.Conn, coord core.Coordinator) error {
	ctx = core.ForWire(ctx)
	cs := &connState{coord: coord, sessions: make(map[uint64]core.Session)}
	defer cs.closeAll()

	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close() // unblocks Recv
		case <-done:
		}
	}()

	for {
		frame, err := conn.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || errors.Is(err, io.EOF) || ctx.Err() != nil {
				return nil
			}
			// Stream transports surface EOF wrapped; treat any receive
			// failure after at least one message as disconnect.
			return nil
		}
		resp := cs.handle(ctx, frame)
		out, err := AppendEncode(cs.enc[:0], resp)
		if err != nil {
			return fmt.Errorf("protocol: encode reply: %w", err)
		}
		cs.enc = out[:0]
		if err := conn.Send(out); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("protocol: send reply: %w", err)
		}
	}
}

func (cs *connState) handle(ctx context.Context, frame []byte) *Message {
	m, err := cs.dec.Decode(frame)
	if err != nil {
		return &Message{Type: TypeError, Error: err.Error()}
	}
	return cs.handleSession(ctx, m, len(frame))
}

func errorReply(version byte, clientID int32, sessionID uint64, format string, args ...any) *Message {
	return &Message{Version: version, Type: TypeError, ClientID: clientID, SessionID: sessionID,
		Error: fmt.Sprintf(format, args...)}
}

// failureReply maps a coordinator error to its wire form: a
// core.RedirectError becomes a TypeRedirect frame, everything else a
// TypeError.
func failureReply(version byte, clientID int32, sessionID uint64, err error) *Message {
	var re *core.RedirectError
	if errors.As(err, &re) {
		return &Message{Version: version, Type: TypeRedirect, ClientID: clientID, SessionID: sessionID,
			Redirect: &Redirect{Addr: re.Addr, Reason: re.Reason}}
	}
	return errorReply(version, clientID, sessionID, "%v", err)
}

// open validates the hello shape against a fresh session's registration
// info, closing the session and reporting the mismatch if they disagree.
func (cs *connState) open(ctx context.Context, clientID int32, hello *Hello) (core.Session, core.RegisterInfo, error) {
	sess, err := cs.coord.Open(ctx, int(clientID))
	if err != nil {
		return nil, core.RegisterInfo{}, err
	}
	info := sess.Info()
	if int(hello.NumClasses) != info.NumClasses || int(hello.NumLayers) != info.NumLayers {
		_ = sess.Close()
		return nil, core.RegisterInfo{}, fmt.Errorf("model mismatch: client %d×%d, server %d×%d",
			hello.NumClasses, hello.NumLayers, info.NumClasses, info.NumLayers)
	}
	return sess, info, nil
}

// deadlineContext applies a propagated wire deadline to ctx. expired
// reports that the deadline had already passed at dequeue — the caller
// must drop the work without computing it.
func deadlineContext(ctx context.Context, micros uint64) (_ context.Context, cancel context.CancelFunc, expired bool) {
	t, ok := overload.DeadlineTime(micros)
	if !ok {
		return ctx, func() {}, false
	}
	if !t.After(time.Now()) {
		return ctx, func() {}, true
	}
	ctx, cancel = context.WithDeadline(ctx, t)
	return ctx, cancel, false
}

// expiredReply drops a request whose deadline passed before processing
// began — the drop-at-dequeue half of deadline propagation. The counter
// is the overload tier's congestion-collapse sentinel: work the server
// declined to compute because nobody was waiting for the answer anymore.
func expiredReply(version byte, clientID int32, sessionID uint64) *Message {
	telemetry.OverloadDeadlineExpired.Inc()
	return errorReply(version, clientID, sessionID, "deadline expired at dequeue")
}

// handleSession serves the session protocol (every live version). Replies
// are framed at the version the request arrived in, so a negotiated-down
// connection never sees frames it cannot decode. frameLen is the
// received frame's size, accounted as sync traffic for peer deltas.
func (cs *connState) handleSession(ctx context.Context, m *Message, frameLen int) *Message {
	v := m.Version
	switch m.Type {
	case TypeHello:
		if m.Proto < V2 {
			return errorReply(v, m.ClientID, 0, "client offered protocol %d; this server speaks %d..%d", m.Proto, V2, Version)
		}
		sess, info, err := cs.open(ctx, m.ClientID, m.Hello)
		if err != nil {
			return failureReply(v, m.ClientID, 0, err)
		}
		// Negotiate down to the client's offer when it speaks an older
		// session version than this build.
		proto := m.Proto
		if proto > Version {
			proto = Version
		}
		id := sessionID(sess)
		cs.sessions[id] = sess
		return &Message{Version: v, Type: TypeHelloAck, ClientID: m.ClientID, SessionID: id, Proto: proto, HelloAck: &info}
	case TypeStatus:
		sess, ok := cs.sessions[m.SessionID]
		if !ok {
			return errorReply(v, m.ClientID, m.SessionID, "unknown session %d", m.SessionID)
		}
		dctx, cancel, expired := deadlineContext(ctx, m.DeadlineMicros)
		if expired {
			return expiredReply(v, m.ClientID, m.SessionID)
		}
		delta, err := sess.Allocate(dctx, *m.Status)
		cancel()
		if err != nil {
			return failureReply(v, m.ClientID, m.SessionID, err)
		}
		return &Message{Version: v, Type: TypeDelta, ClientID: m.ClientID, SessionID: m.SessionID, Delta: &delta}
	case TypeUpdate:
		sess, ok := cs.sessions[m.SessionID]
		if !ok {
			return errorReply(v, m.ClientID, m.SessionID, "unknown session %d", m.SessionID)
		}
		dctx, cancel, expired := deadlineContext(ctx, m.DeadlineMicros)
		if expired {
			return expiredReply(v, m.ClientID, m.SessionID)
		}
		err := sess.Upload(dctx, *m.Update)
		cancel()
		if err != nil {
			return failureReply(v, m.ClientID, m.SessionID, err)
		}
		return &Message{Version: v, Type: TypeAck, ClientID: m.ClientID, SessionID: m.SessionID}
	case TypeBye:
		sess, ok := cs.sessions[m.SessionID]
		if !ok {
			return errorReply(v, m.ClientID, m.SessionID, "unknown session %d", m.SessionID)
		}
		delete(cs.sessions, m.SessionID)
		_ = sess.Close()
		return &Message{Version: v, Type: TypeAck, ClientID: m.ClientID, SessionID: m.SessionID}
	case TypePeerHello:
		ph, ok := cs.coord.(PeerHandler)
		if !ok {
			return errorReply(v, m.ClientID, 0, "peer sync not supported by this endpoint")
		}
		if m.Proto < V2 {
			return errorReply(v, m.ClientID, 0, "peer offered protocol %d; federation requires %d", m.Proto, V2)
		}
		localID, err := ph.HandlePeerHello(int(m.PeerHello.NodeID), int(m.PeerHello.NumClasses), int(m.PeerHello.NumLayers))
		if err != nil {
			return errorReply(v, m.ClientID, 0, "%v", err)
		}
		cs.peerHello = true
		cs.peerProto = negotiatePeer(m.Proto)
		return &Message{Version: v, Type: TypePeerAck, Proto: cs.peerProto, PeerAck: &PeerAck{NodeID: int32(localID)}}
	case TypePeerDelta:
		ph, ok := cs.coord.(PeerHandler)
		if !ok {
			return errorReply(v, m.ClientID, 0, "peer sync not supported by this endpoint")
		}
		if !cs.peerHello {
			return errorReply(v, m.ClientID, 0, "peer delta before peer hello")
		}
		applied, err := ph.HandlePeerDelta(m.PeerDelta)
		if err != nil {
			return errorReply(v, m.ClientID, 0, "%v", err)
		}
		if br, ok := cs.coord.(interface{ NotePeerRecvBytes(int) }); ok {
			br.NotePeerRecvBytes(frameLen)
		}
		return &Message{Version: v, Type: TypePeerAck, Proto: cs.peerProto, PeerAck: &PeerAck{Applied: int32(applied)}}
	case TypePeerJoin:
		ph, ok := cs.coord.(PeerHandler)
		if !ok {
			return errorReply(v, m.ClientID, 0, "peer sync not supported by this endpoint")
		}
		if m.Proto < V2 {
			return errorReply(v, m.ClientID, 0, "peer offered protocol %d; federation requires %d", m.Proto, V2)
		}
		snap, err := ph.HandlePeerJoin(m.PeerJoin)
		if err != nil {
			return errorReply(v, m.ClientID, 0, "%v", err)
		}
		// A join doubles as the handshake: the joiner may push deltas on
		// this connection next.
		cs.peerHello = true
		cs.peerProto = negotiatePeer(m.Proto)
		return &Message{Version: v, Type: TypePeerSnapshot, Proto: cs.peerProto, PeerSnapshot: snap}
	case TypePeerLeave:
		ph, ok := cs.coord.(PeerHandler)
		if !ok {
			return errorReply(v, m.ClientID, 0, "peer sync not supported by this endpoint")
		}
		ph.HandlePeerLeave(int(m.PeerLeave.NodeID))
		proto := cs.peerProto
		if proto == 0 {
			proto = V2
		}
		return &Message{Version: v, Type: TypePeerAck, Proto: proto, PeerAck: &PeerAck{}}
	case TypePeerDigestRequest:
		ae, ok := cs.coord.(AntiEntropyHandler)
		if !ok {
			return errorReply(v, m.ClientID, 0, "peer anti-entropy not supported by this endpoint")
		}
		if !cs.peerHello {
			return errorReply(v, m.ClientID, 0, "peer digest before peer hello")
		}
		if cs.peerProto < V4 {
			return errorReply(v, m.ClientID, 0, "peer digest on a v%d link; anti-entropy requires v%d", cs.peerProto, V4)
		}
		if len(m.PeerDigestRequest.Wants) > 0 {
			pull, err := ae.HandlePeerPull(m.PeerDigestRequest)
			if err != nil {
				return errorReply(v, m.ClientID, 0, "%v", err)
			}
			return &Message{Version: v, Type: TypePeerPullResponse, PeerPullResponse: pull}
		}
		dig, err := ae.HandlePeerDigestRequest(m.PeerDigestRequest)
		if err != nil {
			return errorReply(v, m.ClientID, 0, "%v", err)
		}
		return &Message{Version: v, Type: TypePeerDigest, PeerDigest: dig}
	default:
		return errorReply(v, m.ClientID, m.SessionID, "unexpected request type %d", m.Type)
	}
}

// negotiatePeer picks the peer-plane wire version: the lower of the
// peer's offer and this build's highest (never below V2 — pre-v2 offers
// are rejected before reaching here).
func negotiatePeer(offer byte) byte {
	if offer > Version {
		return Version
	}
	if offer < V2 {
		return V2
	}
	return offer
}

// sessionID extracts the server-assigned id when the coordinator is the
// in-process server; sessions from other coordinators get process-local
// ids (safe across the concurrent per-connection serve loops).
var fallbackID atomic.Uint64

func sessionID(sess core.Session) uint64 {
	if ss, ok := sess.(*core.ServerSession); ok {
		return ss.ID()
	}
	return fallbackID.Add(1)
}
