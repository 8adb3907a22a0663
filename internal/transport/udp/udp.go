// Package udp is the real-socket transport backend: it frames pmcast
// protocol messages with the internal/wire codec and ships them as UDP
// datagrams, one endpoint per bound socket.
//
// Addressing is two-layered. Processes keep their hierarchical pmcast
// address (addr.Address, the tree coordinate); the transport's one
// StaticResolver maps that address to a socket address. The table is
// populated up front (a deployment manifest) or lazily by endpoints that
// bind ephemeral ports and register themselves.
//
// Datagram layout: the sender's pmcast address (addr.AppendAddress) followed
// by one wire frame. UDP preserves message boundaries, so no further
// delimiting is needed. The frame is handed over undecoded, as a
// transport.Raw. A datagram whose sender prefix fails to parse is counted
// and dropped, like line noise on a real fabric; so is one longer than
// MaxDatagram: every read buffer is one byte longer than the bound, so a
// datagram the kernel had to cut is seen as too long.
//
// The datapath is kernel-batched on Linux (see batch_linux.go): egress
// queues handed over via SendMany flush as one sendmmsg vector per 64
// messages, and the read loop fills a vector of 16 buffers with one recvmmsg
// per wakeup. The vectors are lent by the transport for one wakeup at a
// time, so an idle endpoint holds no receive buffer. Everywhere else, and
// under the Config opt-out, the endpoint keeps the portable
// one-syscall-per-datagram path; behavior is identical either way, only the
// syscall count changes (Stats reports both sides' amortization).
package udp

import (
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"

	"pmcast/internal/addr"
	"pmcast/internal/binenc"
	"pmcast/internal/transport"
	"pmcast/internal/wire"
)

// StaticResolver is the transport's peer table: it maps each pmcast tree
// address to the UDP socket it listens on. The table is an immutable map
// behind an atomic pointer, so Resolve — once per envelope sent — is one
// load and a lookup; Register copies the map under a writer lock and swaps
// the copy in, so a re-registered peer is resolved at its new socket from
// the very next send.
type StaticResolver struct {
	mu    sync.Mutex // serializes Register's copy and swap
	peers atomic.Pointer[map[string]*net.UDPAddr]
}

// NewStaticResolver builds a resolver from dotted pmcast addresses to
// "host:port" strings, e.g. {"0.1": "127.0.0.1:7701"}. A port of 0 means
// "bind ephemeral and register the real port" (single-process use). Two
// keys that parse to one address ("0.1" and "00.1") are an error.
func NewStaticResolver(peers map[string]string) (*StaticResolver, error) {
	table := make(map[string]*net.UDPAddr, len(peers))
	keys := make(map[string]string, len(peers)) // address key → the key given
	for key, hostport := range peers {
		a, err := addr.Parse(key)
		if err != nil {
			return nil, fmt.Errorf("udp: resolver key %q: %w", key, err)
		}
		if prev, ok := keys[a.Key()]; ok {
			return nil, fmt.Errorf("udp: resolver keys %q and %q both name %s", min(prev, key), max(prev, key), a)
		}
		keys[a.Key()] = key
		ua, err := net.ResolveUDPAddr("udp", hostport)
		if err != nil {
			return nil, fmt.Errorf("udp: resolver value %q: %w", hostport, err)
		}
		table[a.Key()] = ua
	}
	r := &StaticResolver{}
	r.peers.Store(&table)
	return r, nil
}

// Resolve returns the socket address for a. Unknown addresses report an
// error wrapping transport.ErrUnknownAddr.
func (r *StaticResolver) Resolve(a addr.Address) (*net.UDPAddr, error) {
	if peers := r.peers.Load(); peers != nil {
		if ua, ok := (*peers)[a.Key()]; ok {
			return ua, nil
		}
	}
	return nil, fmt.Errorf("%w: %s has no socket mapping", transport.ErrUnknownAddr, a)
}

// Register maps a to ua, replacing any earlier mapping. Attach calls it for
// an endpoint bound to an ephemeral port, so in-process peers can reach it.
func (r *StaticResolver) Register(a addr.Address, ua *net.UDPAddr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur map[string]*net.UDPAddr
	if p := r.peers.Load(); p != nil {
		cur = *p
	}
	next := make(map[string]*net.UDPAddr, len(cur)+1)
	maps.Copy(next, cur)
	next[a.Key()] = ua
	r.peers.Store(&next)
}

// Config tunes the UDP transport.
type Config struct {
	// Resolver maps tree addresses to sockets. Required.
	Resolver *StaticResolver
	// QueueLen is each endpoint's inbox capacity in frames (default 1024);
	// overflow drops frames, like a full socket buffer. The bound holds
	// storage only while the inbox holds frames (a transport.Queue), so an
	// idle endpoint costs no slot whatever its bound.
	QueueLen int
	// MaxDatagram bounds datagram size in bytes (default 64 KiB − 1, the
	// UDP maximum). Sends that encode larger fail with an error; received
	// datagrams that are larger are counted in Malformed and dropped.
	MaxDatagram int
	// DeferDecode is ignored: every received frame is handed over
	// undecoded, as a transport.Raw. The field remains only for the one
	// line of bench/fleet.go that sets it.
	DeferDecode bool
	// Portable opts out of the kernel-batched datapath and keeps the
	// endpoint on the one-syscall-per-datagram path every platform has. By
	// default, where the platform supports it (Linux amd64/arm64), SendMany
	// flushes its whole queue with sendmmsg — one syscall per 64 datagrams —
	// and the read loop fills a vector of 16 buffers with one recvmmsg per
	// wakeup. Single-message Send always uses the portable path; frames and
	// their per-link order are identical either way.
	Portable bool
	// ReadBufferBytes requests SO_RCVBUF for each endpoint socket (0
	// keeps the kernel default). At kernel-batched rates the default
	// routinely overflows between read wakeups; the achieved size — the
	// kernel may clamp the request — is surfaced in Stats.
	ReadBufferBytes int
	// WriteBufferBytes requests SO_SNDBUF likewise.
	WriteBufferBytes int
}

// Stats is a snapshot of the transport's datapath counters, aggregated
// across its endpoints. SendSyscalls/RecvSyscalls count kernel crossings;
// SentDatagrams/RecvDatagrams count wire datagrams, so datagrams/syscall is
// the kernel-batching amortization (exactly 1.0 on the portable path).
type Stats struct {
	// Malformed counts datagrams discarded because they were too long or
	// their sender prefix failed to parse (the node counts a frame that
	// fails to decode); Dropped counts frames discarded because an inbox
	// was full. Both are silent-loss signals a loopback soak must watch.
	Malformed int64
	Dropped   int64

	SendSyscalls  int64
	SentDatagrams int64

	RecvSyscalls  int64
	RecvDatagrams int64

	// BatchSend/BatchRecv report whether the kernel-batched paths are live
	// on this platform and configuration.
	BatchSend bool
	BatchRecv bool

	// ReadBufferBytes/WriteBufferBytes are the achieved socket buffer
	// sizes (as the kernel reports them, typically double the requested
	// value on Linux); zero when the platform offers no readback.
	ReadBufferBytes  int64
	WriteBufferBytes int64
}

// Transport binds UDP sockets for attached addresses. It implements
// transport.Transport.
type Transport struct {
	cfg Config

	mu        sync.Mutex
	endpoints map[string]*endpoint
	closed    bool

	malformed atomic.Int64
	dropped   atomic.Int64

	sendSyscalls  atomic.Int64
	sentDatagrams atomic.Int64
	recvSyscalls  atomic.Int64
	recvDatagrams atomic.Int64

	batchOn     atomic.Bool
	readBufSize atomic.Int64
	sendBufSize atomic.Int64

	// Kernel-batched scratch, lent to the endpoints for one call at a time
	// (see batch_linux.go): a flush borrows a sendState, a read-loop wakeup
	// a recvVec. recvFree holds the vectors not out, one place per
	// processor; an empty place (nil) is a vector not made yet.
	sendPool sync.Pool
	recvFree chan *recvVec
}

var _ transport.Transport = (*Transport)(nil)

// New builds a UDP transport over the given resolver.
func New(cfg Config) (*Transport, error) {
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("udp: config requires a Resolver")
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.MaxDatagram <= 0 {
		cfg.MaxDatagram = 64<<10 - 1
	}
	t := &Transport{
		cfg:       cfg,
		endpoints: make(map[string]*endpoint),
	}
	t.initPools()
	return t, nil
}

// Attach binds the socket the resolver assigns to a and starts its receive
// loop. If the resolved port is 0 the endpoint binds an ephemeral port and
// registers the real socket back.
func (t *Transport) Attach(a addr.Address) (transport.Endpoint, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if _, ok := t.endpoints[a.Key()]; ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", transport.ErrDuplicateAddr, a)
	}
	t.mu.Unlock()

	bind, err := t.cfg.Resolver.Resolve(a)
	if err != nil {
		return nil, fmt.Errorf("udp: attaching %s: %w", a, err)
	}
	conn, err := net.ListenUDP("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("udp: binding %s for %s: %w", bind, a, err)
	}
	if t.cfg.ReadBufferBytes > 0 {
		_ = conn.SetReadBuffer(t.cfg.ReadBufferBytes) // best effort; achieved size read back below
	}
	if t.cfg.WriteBufferBytes > 0 {
		_ = conn.SetWriteBuffer(t.cfg.WriteBufferBytes)
	}
	if rcv, snd := socketBuffers(conn); rcv > 0 || snd > 0 {
		t.readBufSize.Store(int64(rcv))
		t.sendBufSize.Store(int64(snd))
	}
	ep := &endpoint{
		addr:      a,
		tr:        t,
		conn:      conn,
		prefixLen: len(addr.AppendAddress(nil, a)),
		in:        transport.NewQueue[transport.Envelope](t.cfg.QueueLen),
		done:      make(chan struct{}),
	}
	ep.bio = newBatchIO(conn, t)
	if ep.bio != nil {
		t.batchOn.Store(true)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, transport.ErrClosed
	}
	if _, ok := t.endpoints[a.Key()]; ok {
		t.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("%w: %s", transport.ErrDuplicateAddr, a)
	}
	t.endpoints[a.Key()] = ep
	t.mu.Unlock()

	// Publish the ephemeral socket only after winning the insert: a losing
	// duplicate Attach closes its conn, and must not leave the resolver
	// pointing at that dead socket.
	if bind.Port == 0 {
		t.cfg.Resolver.Register(a, conn.LocalAddr().(*net.UDPAddr))
	}
	go ep.readLoop()
	return ep, nil
}

// Close shuts every endpoint down and rejects further attaches.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	endpoints := t.endpoints
	t.endpoints = make(map[string]*endpoint)
	t.mu.Unlock()
	for _, ep := range endpoints {
		ep.shutdown()
	}
	return nil
}

// Stats snapshots the transport's datapath counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Malformed:        t.malformed.Load(),
		Dropped:          t.dropped.Load(),
		SendSyscalls:     t.sendSyscalls.Load(),
		SentDatagrams:    t.sentDatagrams.Load(),
		RecvSyscalls:     t.recvSyscalls.Load(),
		RecvDatagrams:    t.recvDatagrams.Load(),
		BatchSend:        t.batchOn.Load(),
		BatchRecv:        t.batchOn.Load(),
		ReadBufferBytes:  t.readBufSize.Load(),
		WriteBufferBytes: t.sendBufSize.Load(),
	}
}

func (t *Transport) detach(ep *endpoint) {
	t.mu.Lock()
	if cur, ok := t.endpoints[ep.addr.Key()]; ok && cur == ep {
		delete(t.endpoints, ep.addr.Key())
	}
	t.mu.Unlock()
}

// endpoint is one bound UDP socket speaking the wire framing.
type endpoint struct {
	addr      addr.Address
	tr        *Transport
	conn      *net.UDPConn
	prefixLen int              // encoded size of the sender-address datagram prefix
	bio       *batchIO         // kernel-batched I/O; nil on the portable path
	in        *transport.Inbox // closed by the read loop once it returns
	done      chan struct{}
	senders   senderTable // owned by the read loop

	closeOnce sync.Once
}

var (
	_ transport.Endpoint      = (*endpoint)(nil)
	_ transport.BatchSender   = (*endpoint)(nil)
	_ transport.BatchReceiver = (*endpoint)(nil)
)

// Addr returns the endpoint's pmcast address.
func (e *endpoint) Addr() addr.Address { return e.addr }

// outFrame is one encoded datagram awaiting transmission: the destination
// socket and the full wire bytes (sender prefix + frame) on a pooled buffer.
type outFrame struct {
	dst *net.UDPAddr
	buf []byte
	p   *[]byte // pooled backing storage, released after the flush
}

var framePool = sync.Pool{New: func() any {
	s := make([]outFrame, 0, 64)
	return &s
}}

// appendFrames encodes one batch into datagram frames, reusing pooled encode
// buffers. A batch that exceeds the datagram bound is split at the MTU
// boundary: the membership sections ride the first datagram and the gossip
// sections fill greedily. A payload that is not a wire.Batch is refused.
func (e *endpoint) appendFrames(frames []outFrame, to addr.Address, payload any) ([]outFrame, error) {
	dst, err := e.tr.cfg.Resolver.Resolve(to)
	if err != nil {
		return frames, err
	}
	b, ok := payload.(wire.Batch)
	if !ok {
		return frames, fmt.Errorf("udp: encoding for %s: %w: %T", to, wire.ErrUnknownKind, payload)
	}
	// The sender-address prefix shares the datagram with the frame.
	chunks, err := wire.SplitBatch(b, e.tr.cfg.MaxDatagram-e.prefixLen)
	if err != nil {
		return frames, fmt.Errorf("udp: batch for %s: %w", to, err)
	}
	for _, chunk := range chunks {
		p := wire.GetBuffer()
		buf := addr.AppendAddress(*p, e.addr)
		buf = wire.AppendBatch(buf, chunk)
		*p = buf[:0] // keep the grown capacity pooled
		if len(buf) > e.tr.cfg.MaxDatagram {
			// SplitBatch guarantees this never fires; the guard keeps a
			// codec-accounting bug from emitting a datagram the receiver's
			// MaxDatagram-sized read buffer would silently truncate.
			wire.PutBuffer(p)
			return frames, fmt.Errorf("udp: batch chunk for %s is %d bytes, above the %d-byte datagram bound",
				to, len(buf), e.tr.cfg.MaxDatagram)
		}
		frames = append(frames, outFrame{dst: dst, buf: buf, p: p})
	}
	return frames, nil
}

// releaseFrames returns the frames' pooled encode buffers.
func releaseFrames(frames []outFrame) {
	for i := range frames {
		wire.PutBuffer(frames[i].p)
		frames[i] = outFrame{}
	}
}

// Send encodes one protocol message and ships it as a datagram (or several,
// when a round envelope splits at the MTU boundary) on the portable
// one-syscall-per-datagram path. Kernel batching engages through SendMany —
// a single message gains nothing from a vector of one.
func (e *endpoint) Send(to addr.Address, payload any) error {
	select {
	case <-e.done:
		return transport.ErrClosed
	default:
	}
	fp := framePool.Get().(*[]outFrame)
	frames, err := e.appendFrames((*fp)[:0], to, payload)
	if err == nil {
		for i := range frames {
			if err = e.write(to, frames[i].dst, frames[i].buf); err != nil {
				break
			}
		}
	}
	releaseFrames(frames)
	*fp = frames[:0]
	framePool.Put(fp)
	return err
}

// SendMany implements transport.BatchSender: the whole queue is encoded,
// then flushed with as few kernel crossings as the platform allows — one
// sendmmsg per 64 datagrams on Linux, a plain write loop elsewhere.
// Per-message failures (unknown destination, oversized encoding) are
// skipped and the first one reported after every message was attempted, so
// one bad entry cannot stall the rest of a round's envelopes.
func (e *endpoint) SendMany(msgs []transport.Outgoing) error {
	select {
	case <-e.done:
		return transport.ErrClosed
	default:
	}
	if e.bio == nil {
		var firstErr error
		for _, m := range msgs {
			if err := e.Send(m.To, m.Payload); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	fp := framePool.Get().(*[]outFrame)
	frames := (*fp)[:0]
	var firstErr error
	for _, m := range msgs {
		var err error
		frames, err = e.appendFrames(frames, m.To, m.Payload)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	syscalls, datagrams, err := e.bio.flush(frames)
	e.tr.sendSyscalls.Add(syscalls)
	e.tr.sentDatagrams.Add(datagrams)
	if err != nil && firstErr == nil {
		select {
		case <-e.done:
			firstErr = transport.ErrClosed
		default:
			firstErr = fmt.Errorf("udp: batched send from %s: %w", e.addr, err)
		}
	}
	releaseFrames(frames)
	*fp = frames[:0]
	framePool.Put(fp)
	return firstErr
}

func (e *endpoint) write(to addr.Address, dst *net.UDPAddr, buf []byte) error {
	if _, err := e.conn.WriteToUDP(buf, dst); err != nil {
		select {
		case <-e.done:
			return transport.ErrClosed
		default:
		}
		return fmt.Errorf("udp: sending to %s (%s): %w", to, dst, err)
	}
	e.tr.sendSyscalls.Add(1)
	e.tr.sentDatagrams.Add(1)
	return nil
}

// Inbox returns the inbox of undecoded frames (transport.Raw payloads).
func (e *endpoint) Inbox() *transport.Inbox { return e.in }

// Recv returns the inbox's channel view (see transport.Endpoint.Recv).
func (e *endpoint) Recv() <-chan transport.Envelope { return e.in.View() }

// RecvMany implements transport.BatchReceiver: it waits for the inbox to
// hold frames, then takes whatever the read loop already queued, up to
// len(out) — a consumer wakes once per kernel batch instead of once per
// datagram.
func (e *endpoint) RecvMany(out []transport.Envelope) (int, bool) { return e.in.RecvMany(out) }

// Close unbinds the socket and stops the receive loop.
func (e *endpoint) Close() error {
	e.tr.detach(e)
	e.shutdown()
	return nil
}

func (e *endpoint) shutdown() {
	e.closeOnce.Do(func() {
		close(e.done)
		e.conn.Close() // unblocks the read loop, which closes e.in
	})
}

// readLoop turns datagrams into envelopes until the socket closes. It
// decodes nothing: it parses the sender prefix and ships the frame bytes as
// a transport.Raw, which the consumer unframes.
//
// With kernel-batched ingress the loop drains the socket through a borrowed
// vector of buffers — one recvmmsg per wakeup; the per-datagram handling is
// byte-identical to the portable path below it.
func (e *endpoint) readLoop() {
	defer e.in.Close()
	if e.bio != nil {
		for e.bio.recv(e.deliver) == nil {
		}
		return // socket closed (or fatally broken): endpoint is done
	}
	buf := make([]byte, e.tr.cfg.MaxDatagram+1) // +1: a cut datagram shows as too long
	for {
		n, _, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed (or fatally broken): endpoint is done
		}
		e.tr.recvSyscalls.Add(1)
		e.tr.recvDatagrams.Add(1)
		e.deliver(buf[:n])
	}
}

// deliver parses one datagram's sender prefix and pushes its frame,
// counting malformed datagrams and inbox overflow — the shared per-datagram
// body of both read loops. data is the read buffer itself, so the frame is
// copied (transport.NewRaw) before deliver returns.
func (e *endpoint) deliver(data []byte) {
	if len(data) > e.tr.cfg.MaxDatagram {
		e.tr.malformed.Add(1) // longer than any peer may send, or cut by the kernel
		return
	}
	from, n, err := e.senders.parse(data)
	if err != nil {
		e.tr.malformed.Add(1)
		return
	}
	raw := transport.NewRaw(data[n:])
	if !e.in.TryPush(transport.Envelope{From: from, To: e.addr, Payload: raw}) {
		raw.Release()
		e.tr.dropped.Add(1) // inbox overflow, like a full socket buffer
	}
}

// A sender table is bounded the way binenc.Interner bounds its strings: a
// full table is dropped and rebuilt from the traffic that follows, and a
// prefix longer than maxSenderLen is parsed but never stored. Sixteen wire
// bytes hold every address of a depth-8 space with digits below 64, or of a
// depth-5 space with digits below 8192, so a real sender fits. A stored
// entry holds at most 15 digits — its key, digits and map slot measure
// about 260 bytes — so forged prefixes can pin at most about 1 MiB.
const (
	maxSenders   = 4096
	maxSenderLen = 16
)

// senderTable maps encoded sender prefixes to the addresses already built
// from them, so the prefix of a known sender parses without allocating. The
// zero value is ready to use; it is not safe for concurrent use.
type senderTable struct {
	m map[string]addr.Address
}

// parse reads the sender prefix at the head of data and returns the sender
// and the prefix's length in bytes.
func (t *senderTable) parse(data []byte) (addr.Address, int, error) {
	r := binenc.NewReader(data)
	for n := r.Count(1); n > 0; n-- {
		r.Varint()
	}
	if err := r.Err(); err != nil {
		return addr.Address{}, 0, err
	}
	prefix := data[:len(data)-r.Len()]
	if a, ok := t.m[string(prefix)]; ok { // no-alloc lookup: string(prefix) is not retained
		return a, len(prefix), nil
	}
	a := addr.ReadAddress(binenc.NewReader(prefix))
	if len(prefix) > maxSenderLen {
		return a, len(prefix), nil
	}
	if t.m == nil || len(t.m) >= maxSenders {
		t.m = make(map[string]addr.Address)
	}
	t.m[string(prefix)] = a
	return a, len(prefix), nil
}
