package esm

// Router is a client-side fan-out: it appends no WAL record of its own and
// acks whatever the servers behind it decided, so neither gate obliges it.
type Router struct {
	tr Transport
}

func (r *Router) Call(req *Request) (*Response, error) {
	switch req.Op {
	case OpCommit, OpPrepare:
		return r.forward(req)
	}
	return r.tr.Call(req)
}

// forward acks a read-only transaction without a round trip: clean, since
// it makes nothing durable.
func (r *Router) forward(req *Request) (*Response, error) {
	if req.Tx == 0 {
		return &Response{}, nil
	}
	resp, err := r.tr.Call(req)
	if err != nil {
		return nil, err
	}
	return resp, nil
}
