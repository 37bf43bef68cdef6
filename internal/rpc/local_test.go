package rpc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"scads/internal/record"
)

// TestLocalLentGetKeyDies: a get is served from bytes lent for the
// call, and the lender overwrites them once the response is encoded, so
// a handler that keeps the key past Serve sees it change, in-process as
// over TCP.
func TestLocalLentGetKeyDies(t *testing.T) {
	lt := NewLocalTransport()
	var kept []byte
	lt.Register("n", HandlerFunc(func(req Request) Response {
		kept = req.Key
		return Response{Found: true, Value: req.Key} // a response may alias a lent field
	}))
	resp, err := lt.Call("n", Request{Method: MethodGet, Namespace: "ns", Key: []byte("user:1")})
	if err != nil || string(resp.Value) != "user:1" {
		t.Fatalf("get = %+v, %v; want the key echoed", resp, err)
	}
	if string(kept) == "user:1" {
		t.Errorf("key kept past Serve still reads %q, want it overwritten", kept)
	}
}

// TestLocalApplyOwnsItsRecords: an apply's handler owns the record
// bytes it keeps; neither the caller reusing its buffers after Call nor
// the next call, which reuses the transport's, changes what it holds.
func TestLocalApplyOwnsItsRecords(t *testing.T) {
	lt := NewLocalTransport()
	var kept []record.Record
	lt.Register("n", HandlerFunc(func(req Request) Response {
		if kept == nil {
			kept = req.Records
		}
		return Response{Found: true}
	}))
	key, val := []byte("user:1"), []byte("profile-1")
	recs := []record.Record{{Key: key, Value: val, Version: 7}}
	for i := 0; i < 2; i++ {
		if _, err := lt.Call("n", Request{Method: MethodApply, Namespace: "ns", Records: recs}); err != nil {
			t.Fatal(err)
		}
		copy(key, "xxxxxx")
		copy(val, "xxxxxxxxx")
	}
	recs[0] = record.Record{}
	if len(kept) != 1 || string(kept[0].Key) != "user:1" || string(kept[0].Value) != "profile-1" || kept[0].Version != 7 {
		t.Errorf("handler's records = %+v after the caller reused its buffers", kept)
	}
}

// TestLocalResponseSurvivesNextCall: a response is the caller's to
// keep; the calls after it reuse the transport's buffers and the
// handler's, never the bytes of an answer already returned.
func TestLocalResponseSurvivesNextCall(t *testing.T) {
	lt := NewLocalTransport()
	scratch := make([]byte, 8)
	lt.Register("n", HandlerFunc(func(req Request) Response {
		copy(scratch, req.Key) // answers alias one handler buffer
		return Response{Found: true, Value: scratch[:len(req.Key)], Records: []record.Record{{Key: scratch, Version: 1}}}
	}))
	first, err := lt.Call("n", Request{Method: MethodGet, Key: []byte("first")})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"second", "third"} {
		if _, err := lt.Call("n", Request{Method: MethodGet, Key: []byte(key)}); err != nil {
			t.Fatal(err)
		}
	}
	if string(first.Value) != "first" || !bytes.HasPrefix(first.Records[0].Key, []byte("first")) {
		t.Errorf("first response = %q / %q after two more calls, want \"first\"", first.Value, first.Records[0].Key)
	}
}

// TestLocalConcurrentCallsInternNames: concurrent calls share the
// transport's intern table; each decodes its own namespace, and the
// table stops at its bound however many names go by.
func TestLocalConcurrentCallsInternNames(t *testing.T) {
	lt := NewLocalTransport()
	lt.Register("n", HandlerFunc(func(req Request) Response {
		return Response{Found: true, Value: []byte(req.Namespace)}
	}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*maxInternedNames; i++ {
				ns := fmt.Sprintf("ns-%d", (i+g)%(2*maxInternedNames))
				if resp, err := lt.Call("n", Request{Method: MethodStats, Namespace: ns}); err != nil || string(resp.Value) != ns {
					t.Errorf("call in %q = %q, %v", ns, resp.Value, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(*lt.names.names.Load()); n > maxInternedNames {
		t.Errorf("intern table grew to %d entries, bound %d", n, maxInternedNames)
	}
}
