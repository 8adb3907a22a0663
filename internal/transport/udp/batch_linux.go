//go:build linux && (amd64 || arm64)

// Kernel-batched UDP I/O: sendmmsg/recvmmsg vectors with optional UDP
// GSO/GRO, built on raw syscalls against hand-laid-out mmsghdr structures
// (the module deliberately has no dependencies, so golang.org/x/net and
// golang.org/x/sys are out of reach). The layouts below are the stable
// linux/amd64+arm64 ABI: 8-byte pointers, 8-byte-aligned cmsg headers.
//
// Concurrency contract: flush may be called from many egress workers at
// once (each takes a pooled sendState; the syscall itself serializes on the
// runtime's fd write lock, exactly like concurrent WriteToUDP). recv and
// the datagram accessors belong to the endpoint's single read loop.

package udp

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"unsafe"
)

const (
	msgDontwait = 0x40 // MSG_DONTWAIT: RawConn handles readiness, not the kernel
	solUDP      = 17   // SOL_UDP == IPPROTO_UDP
	udpSegment  = 103  // UDP_SEGMENT: GSO segment size (setsockopt + cmsg)
	udpGRO      = 104  // UDP_GRO: enable coalescing (setsockopt) / segment size (cmsg)

	// sendVector is the mmsghdr vector width per sendmmsg: UIO_MAXIOV is
	// 1024, but past ~64 the syscall amortization is already >98% and the
	// scratch arenas stay cache-friendly.
	sendVector = 64
	// gsoMaxSegs caps segments per GSO super-datagram (kernel cap
	// UDP_MAX_SEGMENTS is 64); gsoMaxBytes keeps the super-datagram under
	// the 64 KiB UDP payload ceiling the kernel builds it in.
	gsoMaxSegs  = 64
	gsoMaxBytes = 65000

	// gsoCmsgSpace is CMSG_SPACE(sizeof(uint16)) on 64-bit: a 16-byte
	// cmsghdr plus the segment size padded to 8 bytes. gsoCmsgLen is the
	// unpadded CMSG_LEN(2) recorded in the header.
	gsoCmsgSpace = 24
	gsoCmsgLen   = 18
	// groCtrlSpace sizes the per-message recv control buffer: one UDP_GRO
	// int cmsg plus slack for any future ancillary data.
	groCtrlSpace = 64
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

var (
	errSendStall   = errors.New("udp: sendmmsg accepted no messages")
	errUnsupported = errors.New("udp: kernel-batched I/O unavailable")
)

// wireMsg is one mmsghdr-to-be: a destination and one or more datagram
// payloads. Plain messages carry a single buffer in buf; a GSO message
// carries a run of equal-size same-destination buffers in bufs that the
// kernel splits back into len(bufs) datagrams.
type wireMsg struct {
	dst  *net.UDPAddr
	buf  []byte   // single datagram; nil when bufs is set
	bufs [][]byte // GSO run; nil for plain messages
	seg  int      // >0: GSO segment size (== len(bufs[i]) for all but the last)
}

// datagrams is how many wire datagrams the message puts on the network.
func (m *wireMsg) datagrams() int64 {
	if m.bufs != nil {
		return int64(len(m.bufs))
	}
	return 1
}

// iovCount is how many iovec slots the message occupies.
func (m *wireMsg) iovCount() int {
	if m.bufs != nil {
		return len(m.bufs)
	}
	return 1
}

// sendState is the scratch a single flush builds its vectors in; pooled
// because egress workers flush concurrently.
type sendState struct {
	msgs  []wireMsg
	iovs  []iovec
	hdrs  [sendVector]mmsghdr
	names [sendVector][sockaddrInet6Size]byte
	ctrls [sendVector][gsoCmsgSpace]byte
}

// batchIO is the kernel-batched datapath of one endpoint socket.
type batchIO struct {
	rc    syscall.RawConn
	gso   bool
	gro   bool
	sock6 bool // socket family is AF_INET6: names must be v6(-mapped)

	sendPool sync.Pool // *sendState

	// Ingress vector, owned by the read loop: recv fills rhdrs/rlens/rsegs,
	// datagram(i) reads them until the next recv.
	rbufs  [][]byte
	riovs  []iovec
	rhdrs  []mmsghdr
	rctrls [][]byte
	rlens  []int
	rsegs  []int
}

// newBatchIO probes the socket and returns the batched datapath, or nil
// when the configuration opts out or the socket exposes no raw access (the
// caller then keeps the portable path).
func newBatchIO(conn *net.UDPConn, cfg Config, maxDatagram int) *batchIO {
	if cfg.Portable {
		return nil
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	b := &batchIO{rc: rc}
	if la, ok := conn.LocalAddr().(*net.UDPAddr); ok {
		b.sock6 = la.IP.To4() == nil
	}
	b.sendPool.New = func() any { return new(sendState) }
	if cfg.GSO {
		b.gso = probeGSO(rc)
	}
	if cfg.GRO {
		b.gro = enableGRO(rc)
	}
	n := cfg.RecvBatch
	b.rbufs = make([][]byte, n)
	b.riovs = make([]iovec, n)
	b.rhdrs = make([]mmsghdr, n)
	b.rlens = make([]int, n)
	b.rsegs = make([]int, n)
	if b.gro {
		b.rctrls = make([][]byte, n)
	}
	for i := 0; i < n; i++ {
		b.rbufs[i] = make([]byte, maxDatagram)
		b.riovs[i] = iovec{base: &b.rbufs[i][0], len: uint64(maxDatagram)}
		h := &b.rhdrs[i].hdr
		h.iov = &b.riovs[i]
		h.iovlen = 1
		if b.gro {
			b.rctrls[i] = make([]byte, groCtrlSpace)
			h.control = &b.rctrls[i][0]
			h.controllen = groCtrlSpace
		}
	}
	return b
}

// probeGSO checks that the kernel understands UDP_SEGMENT (4.18+) by
// setting the socket-wide segment size to 0 (off) — harmless when it
// works, ENOPROTOOPT/EINVAL when it doesn't.
func probeGSO(rc syscall.RawConn) bool {
	ok := false
	if err := rc.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	}); err != nil {
		return false
	}
	return ok
}

// enableGRO turns on receive coalescing (kernel 5.0+).
func enableGRO(rc syscall.RawConn) bool {
	ok := false
	if err := rc.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	}); err != nil {
		return false
	}
	return ok
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
// reports (syscalls, datagrams actually accepted, GSO-segment datagrams).
// On error the counts cover what the kernel took before failing.
func (b *batchIO) flush(frames []outFrame) (syscalls, datagrams, gsoSegs int64, err error) {
	if len(frames) == 0 {
		return 0, 0, 0, nil
	}
	st := b.sendPool.Get().(*sendState)
	st.msgs = b.coalesce(frames, st.msgs[:0])
	var sent int
	syscalls, sent, err = sendAll(st.msgs, sendVector, func(chunk []wireMsg) (int, error) {
		return b.sendChunk(st, chunk)
	})
	for i := 0; i < sent; i++ {
		n := st.msgs[i].datagrams()
		datagrams += n
		if st.msgs[i].seg > 0 {
			gsoSegs += n
		}
	}
	b.sendPool.Put(st)
	return syscalls, datagrams, gsoSegs, err
}

// coalesce turns encoded frames into mmsghdr-shaped messages. Without GSO
// it is one message per frame. With GSO, a run of consecutive frames to
// the same destination whose sizes fit the kernel's segmentation contract
// — every segment equal to the first, except a final shorter one — folds
// into a single message the kernel splits back apart. Runs only form on
// pointer-identical destinations (what the resolver cache yields for
// repeated sends to one peer); distinct-but-equal addresses merely miss
// the optimization.
func (b *batchIO) coalesce(frames []outFrame, msgs []wireMsg) []wireMsg {
	if !b.gso {
		for i := range frames {
			msgs = append(msgs, wireMsg{dst: frames[i].dst, buf: frames[i].buf})
		}
		return msgs
	}
	for i := 0; i < len(frames); {
		f := &frames[i]
		seg := len(f.buf)
		total := seg
		j := i + 1
		for j < len(frames) && j-i < gsoMaxSegs {
			g := &frames[j]
			if g.dst != f.dst || len(g.buf) > seg || total+len(g.buf) > gsoMaxBytes || seg == 0 {
				break
			}
			shorter := len(g.buf) < seg
			total += len(g.buf)
			j++
			if shorter {
				break // a short segment must be the last in the run
			}
		}
		if j-i == 1 {
			msgs = append(msgs, wireMsg{dst: f.dst, buf: f.buf})
		} else {
			m := wireMsg{dst: f.dst, bufs: make([][]byte, 0, j-i), seg: seg}
			for k := i; k < j; k++ {
				m.bufs = append(m.bufs, frames[k].buf)
			}
			msgs = append(msgs, m)
		}
		i = j
	}
	return msgs
}

// sendAll pushes msgs through send in vectors of at most batch messages,
// resubmitting the tail whenever the kernel accepts only a prefix (sendmmsg
// may return k < n: the first k messages are on the wire, the rest were
// never attempted). Factored over an injectable send so the partial-
// completion retry is testable without a cooperating kernel. A call that
// accepts nothing without reporting an error is treated as a hard failure
// rather than a spin.
func sendAll(msgs []wireMsg, batch int, send func([]wireMsg) (int, error)) (syscalls int64, sent int, err error) {
	for sent < len(msgs) {
		chunk := msgs[sent:]
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

// sendChunk builds the mmsghdr vector for one chunk (≤ sendVector messages)
// in st's arenas and issues a single sendmmsg, waiting for writability on
// EAGAIN like a blocking WriteToUDP would. Returns how many messages the
// kernel accepted.
func (b *batchIO) sendChunk(st *sendState, msgs []wireMsg) (int, error) {
	// Fill the iovec arena first: it may grow (reallocate), so header
	// pointers into it are only taken once it is complete.
	iovs := st.iovs[:0]
	for i := range msgs {
		if msgs[i].bufs == nil {
			buf := msgs[i].buf
			iovs = append(iovs, iovec{base: &buf[0], len: uint64(len(buf))})
			continue
		}
		for _, buf := range msgs[i].bufs {
			iovs = append(iovs, iovec{base: &buf[0], len: uint64(len(buf))})
		}
	}
	st.iovs = iovs
	k := 0
	for i := range msgs {
		m := &msgs[i]
		h := &st.hdrs[i]
		*h = mmsghdr{}
		h.hdr.name = &st.names[i][0]
		h.hdr.namelen = putSockaddr(&st.names[i], m.dst, b.sock6)
		h.hdr.iov = &iovs[k]
		h.hdr.iovlen = uint64(m.iovCount())
		k += m.iovCount()
		if m.seg > 0 {
			putGSOCmsg(&st.ctrls[i], m.seg)
			h.hdr.control = &st.ctrls[i][0]
			h.hdr.controllen = gsoCmsgSpace
		}
	}
	var n int
	var errno syscall.Errno
	err := b.rc.Write(func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&st.hdrs[0])), uintptr(len(msgs)),
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

// recv fills the ingress vector with one recvmmsg, blocking (via the
// runtime poller) until at least one datagram is ready. After a successful
// return, datagram(i) for i < n yields each payload and its GRO segment
// size (0 when the kernel did not coalesce).
func (b *batchIO) recv() (int, error) {
	var n int
	var errno syscall.Errno
	err := b.rc.Read(func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&b.rhdrs[0])), uintptr(len(b.rhdrs)),
			msgDontwait, 0, 0)
		if e == syscall.EAGAIN || e == syscall.EINTR {
			return false // wait for readability, then retry
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
	for i := 0; i < n; i++ {
		h := &b.rhdrs[i]
		b.rlens[i] = int(h.len)
		b.rsegs[i] = 0
		if b.gro {
			b.rsegs[i] = groSegment(h, b.rctrls[i])
			// The kernel shrank controllen to what it wrote; restore the
			// full buffer for the next syscall.
			h.hdr.controllen = groCtrlSpace
		}
		h.hdr.flags = 0
	}
	return n, nil
}

// datagram returns the i-th received payload and its GRO segment size.
// Valid until the next recv.
func (b *batchIO) datagram(i int) ([]byte, int) {
	return b.rbufs[i][:b.rlens[i]], b.rsegs[i]
}

// groSegment extracts the UDP_GRO segment size from a message's control
// data, walking 8-byte-aligned cmsg headers.
func groSegment(h *mmsghdr, ctrl []byte) int {
	cl := int(h.hdr.controllen)
	if cl > len(ctrl) {
		cl = len(ctrl)
	}
	for off := 0; off+16 <= cl; {
		l := int(*(*uint64)(unsafe.Pointer(&ctrl[off])))
		level := *(*int32)(unsafe.Pointer(&ctrl[off+8]))
		typ := *(*int32)(unsafe.Pointer(&ctrl[off+12]))
		if l < 16 || off+l > cl {
			return 0
		}
		if level == solUDP && typ == udpGRO && l >= 16+4 {
			return int(*(*int32)(unsafe.Pointer(&ctrl[off+16])))
		}
		off += (l + 7) &^ 7
	}
	return 0
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

// putGSOCmsg writes the UDP_SEGMENT control message carrying the segment
// size: cmsghdr{len=CMSG_LEN(2), level=SOL_UDP, type=UDP_SEGMENT} + uint16.
func putGSOCmsg(buf *[gsoCmsgSpace]byte, seg int) {
	*buf = [gsoCmsgSpace]byte{}
	*(*uint64)(unsafe.Pointer(&buf[0])) = gsoCmsgLen
	*(*int32)(unsafe.Pointer(&buf[8])) = solUDP
	*(*int32)(unsafe.Pointer(&buf[12])) = udpSegment
	*(*uint16)(unsafe.Pointer(&buf[16])) = uint16(seg)
}
