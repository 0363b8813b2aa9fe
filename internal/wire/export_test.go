package wire

// Call exposes Conn.call to the external tests, which stamp explicit
// sequence numbers on requests.
func (cn *Conn) Call(req *Request) (*Response, error) { return cn.call(req) }
