//go:build linux && (amd64 || arm64)

// Kernel-batched UDP I/O: sendmmsg/recvmmsg vectors, built on raw syscalls
// against hand-laid-out mmsghdr structures (the module deliberately has no
// dependencies, so golang.org/x/net and golang.org/x/sys are out of reach).
// The layouts below are the stable linux/amd64+arm64 ABI: 8-byte pointers.
//
// Concurrency contract: flush may be called from many egress workers at
// once (each borrows a sendState; the syscall itself serializes on the
// runtime's fd write lock, exactly like concurrent WriteToUDP). recv belongs
// to the endpoint's single read loop. Both scratch kinds are lent by the
// Transport, shared by all of its endpoints, for the length of one call:
// send states from a pool, receive vectors from a fixed set of at most one
// per processor.

package udp

import (
	"errors"
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

const (
	msgDontwait = 0x40 // MSG_DONTWAIT: RawConn handles readiness, not the kernel

	// sendVector is the mmsghdr vector width per sendmmsg: UIO_MAXIOV is
	// 1024, but past ~64 the syscall amortization is already >98% and the
	// scratch arenas stay cache-friendly.
	sendVector = 64
	// recvVector is the recvmmsg vector width: how many datagrams one
	// ingress syscall can drain. Each slot holds a full datagram plus one
	// byte (see recvVec), so a vector is 16 × 64 KiB = 1 MiB. It is lent per
	// wakeup, not owned per endpoint: a read loop parked on an idle socket
	// holds none, so what a transport pins follows the wakeups in flight
	// (at most GOMAXPROCS), not the endpoints attached. Over 160 k recvmmsg
	// returns of the udp_broadcast benchmark workload (16 nodes, 2 ms
	// gossip, closed-loop bursts) at the former width of 32 the mean return
	// was 3.5 datagrams, 97 % returned at most 16 and 0.8 % filled all 32
	// (no datagram exceeded 4 KiB): at 16 the rare longer burst costs one
	// more syscall, and the socket buffer holds it meanwhile.
	recvVector = 16
)

type iovec struct {
	base *byte
	len  uint64
}

type msghdr struct {
	name       *byte
	namelen    uint32
	_          [4]byte
	iov        *iovec
	iovlen     uint64
	control    *byte
	controllen uint64
	flags      int32
	_          [4]byte
}

type mmsghdr struct {
	hdr msghdr
	len uint32 // bytes received/sent for this message, filled by the kernel
	_   [4]byte
}

type sockaddrInet4 struct {
	family uint16
	port   [2]byte // network byte order
	addr   [4]byte
	zero   [8]byte
}

type sockaddrInet6 struct {
	family   uint16
	port     [2]byte
	flowinfo uint32
	addr     [16]byte
	scope    uint32
}

const sockaddrInet6Size = 28 // also the size of the shared name arena slots

var errSendStall = errors.New("udp: sendmmsg accepted no messages")

// sendState is the scratch a single flush builds its vectors in; pooled
// because egress workers flush concurrently. One frame is one datagram is one
// iovec, so every arena is a fixed array and header pointers into them never
// move.
type sendState struct {
	iovs  [sendVector]iovec
	hdrs  [sendVector]mmsghdr
	names [sendVector][sockaddrInet6Size]byte
}

// recvVec is one recvmmsg vector: recvVector slots, each one byte longer
// than MaxDatagram so that a datagram the kernel had to cut shows as too
// long (the endpoint drops it) instead of as a shorter frame that may still
// decode. Headers point into the vector's own arrays, which never move.
type recvVec struct {
	bufs [recvVector][]byte
	iovs [recvVector]iovec
	hdrs [recvVector]mmsghdr
}

func newRecvVec(slot int) *recvVec {
	v := new(recvVec)
	arena := make([]byte, recvVector*slot)
	for i := range v.bufs {
		v.bufs[i] = arena[i*slot : (i+1)*slot : (i+1)*slot]
		v.iovs[i] = iovec{base: &v.bufs[i][0], len: uint64(slot)}
		v.hdrs[i].hdr.iov = &v.iovs[i]
		v.hdrs[i].hdr.iovlen = 1
	}
	return v
}

// initPools sets up the scratch the transport lends its endpoints' batched
// calls. recvFree starts with one empty place per processor: a place is
// given a vector the first time it is lent, so the transport makes at most
// GOMAXPROCS vectors in its life, and only as many as wakeups ever
// overlapped.
func (t *Transport) initPools() {
	t.sendPool.New = func() any { return new(sendState) }
	t.recvFree = make(chan *recvVec, runtime.GOMAXPROCS(0))
	for range cap(t.recvFree) {
		t.recvFree <- nil
	}
}

// borrowRecv lends a read-loop wakeup a receive vector, waiting while every
// one is out. The fixed set caps what the vectors cost: a loop descheduled
// with a vector out (a GC assist, a preemption) would otherwise make the
// next readable socket's loop take a fresh 1 MiB vector. The vectors are
// kept rather than pooled because a sync.Pool drops what it holds at every
// collection, and its New then makes fresh ones all run long.
func (t *Transport) borrowRecv() *recvVec {
	v := <-t.recvFree
	if v == nil {
		v = newRecvVec(t.cfg.MaxDatagram + 1)
	}
	return v
}

// returnRecv takes back a vector borrowRecv lent.
func (t *Transport) returnRecv(v *recvVec) { t.recvFree <- v }

// batchIO is the kernel-batched datapath of one endpoint socket. It owns no
// scratch: every call borrows it from the transport.
type batchIO struct {
	rc    syscall.RawConn
	sock6 bool // socket family is AF_INET6: names must be v6(-mapped)
	tr    *Transport
}

// newBatchIO returns the batched datapath of the socket, or nil when the
// configuration opts out or the socket exposes no raw access (the caller
// then keeps the portable path).
func newBatchIO(conn *net.UDPConn, t *Transport) *batchIO {
	if t.cfg.Portable {
		return nil
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	b := &batchIO{rc: rc, tr: t}
	if la, ok := conn.LocalAddr().(*net.UDPAddr); ok {
		b.sock6 = la.IP.To4() == nil
	}
	return b
}

// socketBuffers reads back the achieved SO_RCVBUF/SO_SNDBUF sizes.
func socketBuffers(conn *net.UDPConn) (rcv, snd int) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, 0
	}
	_ = rc.Control(func(fd uintptr) {
		rcv, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		snd, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	})
	return rcv, snd
}

// flush ships every frame with as few sendmmsg calls as possible and
// reports (syscalls, datagrams actually accepted). On error the counts cover
// what the kernel took before failing.
func (b *batchIO) flush(frames []outFrame) (syscalls, datagrams int64, err error) {
	st := b.tr.sendPool.Get().(*sendState)
	syscalls, sent, err := sendAll(frames, sendVector, func(chunk []outFrame) (int, error) {
		return b.sendChunk(st, chunk)
	})
	b.tr.sendPool.Put(st)
	return syscalls, int64(sent), err
}

// sendAll pushes frames through send in vectors of at most batch, resubmitting
// the tail whenever the kernel accepts only a prefix (sendmmsg may return
// k < n: the first k messages are on the wire, the rest were never
// attempted). Factored over an injectable send so the partial-completion
// retry is testable without a cooperating kernel. A call that accepts nothing
// without reporting an error is treated as a hard failure rather than a spin.
func sendAll(frames []outFrame, batch int, send func([]outFrame) (int, error)) (syscalls int64, sent int, err error) {
	for sent < len(frames) {
		chunk := frames[sent:]
		if len(chunk) > batch {
			chunk = chunk[:batch]
		}
		n, err := send(chunk)
		syscalls++
		if n > 0 {
			sent += n
		}
		if err != nil {
			return syscalls, sent, err
		}
		if n <= 0 {
			return syscalls, sent, errSendStall
		}
	}
	return syscalls, sent, nil
}

// sendChunk builds the mmsghdr vector for one chunk (≤ sendVector frames) in
// st's arenas and issues a single sendmmsg, waiting for writability on EAGAIN
// like a blocking WriteToUDP would. Returns how many messages the kernel
// accepted.
func (b *batchIO) sendChunk(st *sendState, frames []outFrame) (int, error) {
	for i := range frames {
		f := &frames[i]
		st.iovs[i] = iovec{base: &f.buf[0], len: uint64(len(f.buf))}
		h := &st.hdrs[i]
		*h = mmsghdr{}
		h.hdr.name = &st.names[i][0]
		h.hdr.namelen = putSockaddr(&st.names[i], f.dst, b.sock6)
		h.hdr.iov = &st.iovs[i]
		h.hdr.iovlen = 1
	}
	var n int
	var errno syscall.Errno
	err := b.rc.Write(func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&st.hdrs[0])), uintptr(len(frames)),
			msgDontwait, 0, 0)
		if e == syscall.EAGAIN || e == syscall.EINTR {
			return false // wait for writability, then retry
		}
		n, errno = int(r1), e
		return true
	})
	if err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, errno
	}
	return n, nil
}

// recv drains the socket with one recvmmsg, blocking (via the runtime
// poller) until at least one datagram is ready, and hands each datagram to
// deliver in arrival order. The vector is borrowed inside the readiness
// callback — only once the socket is readable — and returned when the
// kernel has nothing (EAGAIN, EINTR), on error, and after deliver has run
// for every datagram: deliver must copy what it keeps. The syscall and its
// datagrams are counted before the first delivery.
func (b *batchIO) recv(deliver func([]byte)) error {
	var v *recvVec
	var n int
	var errno syscall.Errno
	err := b.rc.Read(func(fd uintptr) bool {
		v = b.tr.borrowRecv()
		r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&v.hdrs[0])), uintptr(len(v.hdrs)),
			msgDontwait, 0, 0)
		if e == syscall.EAGAIN || e == syscall.EINTR {
			b.tr.returnRecv(v) // parked: wait for readability holding nothing
			v = nil
			return false
		}
		n, errno = int(r1), e
		return true
	})
	if err == nil && errno != 0 {
		err = errno
	}
	if err != nil {
		if v != nil {
			b.tr.returnRecv(v)
		}
		return err
	}
	b.tr.recvSyscalls.Add(1)
	b.tr.recvDatagrams.Add(int64(n))
	for i := 0; i < n; i++ {
		deliver(v.bufs[i][:v.hdrs[i].len])
	}
	b.tr.returnRecv(v)
	return nil
}

// putSockaddr writes dst as a kernel sockaddr into buf and returns its
// length. The family must match the socket's: a dual-stack (AF_INET6)
// socket takes IPv4 destinations as v4-mapped v6 addresses.
func putSockaddr(buf *[sockaddrInet6Size]byte, dst *net.UDPAddr, sock6 bool) uint32 {
	if !sock6 {
		if ip4 := dst.IP.To4(); ip4 != nil {
			sa := (*sockaddrInet4)(unsafe.Pointer(buf))
			*sa = sockaddrInet4{family: syscall.AF_INET}
			sa.port = [2]byte{byte(dst.Port >> 8), byte(dst.Port)}
			copy(sa.addr[:], ip4)
			return uint32(unsafe.Sizeof(sockaddrInet4{}))
		}
	}
	sa := (*sockaddrInet6)(unsafe.Pointer(buf))
	*sa = sockaddrInet6{family: syscall.AF_INET6}
	sa.port = [2]byte{byte(dst.Port >> 8), byte(dst.Port)}
	copy(sa.addr[:], dst.IP.To16())
	return sockaddrInet6Size
}
