// Package retry exercises the rpcretry analyzer against the real
// scads/internal/rpc types: round trips belong in attempts handed to
// the request-execution primitive, and node errors are read only
// there.
package retry

import "scads/internal/rpc"

// attempt mirrors partition's: one round trip, answer verbatim.
type attempt func(addr string) (rpc.Response, error)

// execute stands in for the primitive: it takes an attempt, so it may
// read the node's error.
func execute(addr string, try attempt) error {
	resp, err := try(addr)
	if err != nil {
		return err
	}
	return resp.Error()
}

// viaPrimitive is the sanctioned shape.
func viaPrimitive(t rpc.Transport, addr string, req rpc.Request) error {
	return execute(addr, func(addr string) (rpc.Response, error) {
		return t.Call(addr, req)
	})
}

// direct makes its own round trip and surfaces the error raw.
func direct(t rpc.Transport, addr string) error {
	_, err := t.Call(addr, rpc.Request{Method: rpc.MethodPut}) // want `transport Call outside an attempt`
	return err
}

// plainClosure is a function literal, but not one handed to the
// primitive.
func plainClosure(t rpc.Transport, addr string) error {
	f := func() (rpc.Response, error) {
		return t.Call(addr, rpc.Request{Method: rpc.MethodGet}) // want `transport Call outside an attempt`
	}
	_, err := f()
	return err
}

// readsNodeError classifies a node's reply for itself.
func readsNodeError(resp rpc.Response) error {
	return resp.Error() // want `Response\.Error\(\) outside the request-execution primitive`
}

// insideAttempt may look at the reply: the literal is an attempt.
func insideAttempt(t rpc.Transport, addr string) error {
	return execute(addr, func(addr string) (rpc.Response, error) {
		resp, err := t.Call(addr, rpc.Request{Method: rpc.MethodScan})
		if err == nil && resp.Error() != nil {
			resp.Records = nil
		}
		return resp, err
	})
}
