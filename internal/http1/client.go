package http1

import (
	"bufio"
	"errors"
	"io"
	"net"
)

// Get writes a GET for target on conn, reads the response to its end and
// returns its status. It sets no deadline: the caller dials and bounds
// the exchange. An error comes back as the failing call returned it, so
// Classify can tell a write's timeout from a read's.
func Get(conn io.ReadWriter, target string) (int, error) {
	if _, err := WriteRequest(conn, NewRequest("GET", target, nil, 0)); err != nil {
		return 0, err
	}
	resp, err := ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return 0, err
	}
	if _, err := ReadFullBody(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// ErrorClass is how a client saw one request end, in the classes of the
// paper's Fig. 12.
type ErrorClass int

// Error classes.
const (
	ClassOK ErrorClass = iota
	ClassConnReset
	ClassStreamAbort
	ClassTimeout
	ClassWriteTimeout
)

// String names the class as the paper does.
func (c ErrorClass) String() string {
	switch c {
	case ClassConnReset:
		return "conn. rst."
	case ClassStreamAbort:
		return "stream abort"
	case ClassTimeout:
		return "timeout"
	case ClassWriteTimeout:
		return "write timeout"
	default:
		return "ok"
	}
}

// Classify sorts one request's outcome: the status Get returned, or the
// error of the dial or the Get that failed. A 5xx is a stream abort, a
// deadline a write ran into is a write timeout and one a read ran into
// a timeout; every other failure, a failed dial included, is a
// connection reset.
func Classify(status int, err error) ErrorClass {
	var ne net.Error
	var op *net.OpError
	errors.As(err, &op)
	switch {
	case err == nil && status >= 500:
		return ClassStreamAbort
	case err == nil:
		return ClassOK
	case !errors.As(err, &ne) || !ne.Timeout() || op != nil && op.Op == "dial":
		return ClassConnReset
	case op != nil && op.Op == "write":
		return ClassWriteTimeout
	}
	return ClassTimeout
}
