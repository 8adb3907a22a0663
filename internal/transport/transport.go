// Package transport defines the pluggable network fabric the asynchronous
// pmcast runtime runs on, and provides the in-memory reference
// implementation (Network).
//
// The runtime depends only on the two small interfaces below: a Transport
// attaches endpoints by hierarchical address, and an Endpoint exchanges
// opaque protocol messages. Backends decide what "the network" is — the
// in-memory Network in this package simulates the UDP/IP fabric of the
// paper's environment (silent loss, delay, partitions, bounded queues),
// while internal/transport/udp frames the same messages over real UDP
// sockets via the internal/wire codec.
//
// The in-memory Network's fault-injection knobs (SetLoss, Block, Heal, ...)
// are methods of *Network: code that injects faults holds the concrete
// fabric, so the runtime's dependency stays the two interfaces.
package transport

import (
	"errors"

	"pmcast/internal/addr"
	"pmcast/internal/wire"
)

// Errors reported by transports. Backends wrap these sentinel values so
// callers can errors.Is across implementations.
var (
	ErrClosed        = errors.New("transport: endpoint closed")
	ErrDuplicateAddr = errors.New("transport: address already attached")
	ErrUnknownAddr   = errors.New("transport: unknown destination")
)

// Envelope is one delivered message.
type Envelope struct {
	From, To addr.Address
	Payload  any
}

// Raw is an undecoded wire frame: a byte-oriented transport (the UDP
// backend) delivers every envelope's Payload as a Raw, and the consumer
// decodes. The node engine decodes on its ingress workers — each owning its
// own interning decoder — when it has them, and on its protocol goroutine
// otherwise, so hostile bytes are validated in one place. Frames ride
// pooled buffers; call Release once decoded.
type Raw struct {
	Frame []byte
	buf   *[]byte
}

// NewRaw copies one frame into a buffer from the codec's pool.
func NewRaw(frame []byte) Raw {
	p := wire.GetBuffer()
	*p = append(*p, frame...)
	return Raw{Frame: *p, buf: p}
}

// Release returns the frame's backing buffer to the pool; the Raw must not
// be used afterwards. Release on a literal (unpooled) Raw is a no-op.
func (r Raw) Release() {
	if r.buf != nil {
		wire.PutBuffer(r.buf)
	}
}

// Transport is a network fabric processes attach to by address. All
// implementations are safe for concurrent use.
type Transport interface {
	// Attach registers an address and returns its live endpoint.
	Attach(a addr.Address) (Endpoint, error)
	// Close tears the whole fabric down: every attached endpoint is
	// closed and pending deliveries are cancelled. Safe to call twice.
	Close() error
}

// Endpoint is one attached process's network interface.
type Endpoint interface {
	// Addr returns the endpoint's address.
	Addr() addr.Address
	// Send routes a protocol message to the destination address. Loss is
	// silent, as on a real network; only unknown destinations and a
	// closed endpoint return errors.
	Send(to addr.Address, payload any) error
	// Inbox is the endpoint's bounded inbox, closed when the endpoint is.
	// Multiple consumers may drain it concurrently — the staged node engine
	// drains one endpoint with several ingress workers.
	Inbox() *Inbox
	// Recv is a channel view of the inbox (Queue.View): the channel receives
	// what the endpoint receives and closes when it does, and len of it is
	// the inbox depth. A first call makes the inbox a channel of the full
	// bound, so it is for bench/'s traced pass and tests alone.
	Recv() <-chan Envelope
	// Close detaches the endpoint from the fabric.
	Close() error
}

// Outgoing is one queued protocol message awaiting transmission — the unit
// the staged engine's egress workers accumulate and flush.
type Outgoing struct {
	To      addr.Address
	Payload any
}

// BatchSender is an optional Endpoint extension: backends that can amortize
// kernel work across messages implement it, and the engine's egress workers
// hand over their whole drained send queue instead of one datagram at a
// time. The UDP backend flushes the queue with a single sendmmsg vector per
// 64 messages; see internal/transport/udp.
//
// Delivery semantics match Send called once per message, in order:
// per-message loss stays silent, and SendMany keeps going past individual
// resolve/encode failures — it returns the first error only after
// attempting every message, so one unknown destination cannot stall a
// round's remaining envelopes.
type BatchSender interface {
	SendMany(msgs []Outgoing) error
}

// BatchReceiver is an optional Endpoint extension for burst-draining the
// inbox: RecvMany blocks for the first envelope, then fills out with
// whatever else is already pending — without blocking again — so a consumer
// wakes once per traffic burst rather than once per message. It returns the
// number of envelopes written and false once the endpoint is closed and
// drained (n may still be positive on that final call). Safe for concurrent
// use by multiple consumers, like Recv.
type BatchReceiver interface {
	RecvMany(out []Envelope) (int, bool)
}
