//go:build !unix

package gateway

// closedWhileIdle cannot look at the socket without waiting here, so a
// pooled connection is taken as open; one the backend closed fails the
// request that takes it.
func (c *hopConn) closedWhileIdle() bool {
	return c.br.Buffered() > 0
}
