//go:build unix

package gateway

import (
	"syscall"
	"time"
)

// closedWhileIdle reports whether c's backend closed it, or sent it bytes
// nobody asked for, while it sat in the pool. It reads the socket once
// without waiting: an open idle connection has nothing to read. A doubt
// reads as closed, which costs only a dial.
func (c *hopConn) closedWhileIdle() bool {
	if c.br.Buffered() > 0 {
		return true
	}
	sc, ok := c.Conn.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	// The last exchange's deadline has most likely passed, and a read
	// past its deadline fails before it looks at the socket.
	if err != nil || c.SetReadDeadline(time.Time{}) != nil {
		return true
	}
	closed := true
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		n, err := syscall.Read(int(fd), b[:])
		closed = n >= 0 || err != syscall.EAGAIN // EOF, a stray byte or a socket error
		return true                              // never wait for the socket
	})
	return err != nil || closed
}
