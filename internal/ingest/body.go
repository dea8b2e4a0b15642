package ingest

import "io"

// maxPresize caps the buffer ReadBody allocates up front, so a
// Content-Length larger than what the client actually sends cannot
// make the server allocate memory it never receives. Larger bodies
// still read in full; past the cap the buffer grows as data arrives.
const maxPresize = 1 << 20

// ReadBody reads r to EOF into one buffer presized from the request's
// declared length (contentLength < 0 when unknown). With an honest
// Content-Length of at most maxPresize the body lands in exactly one
// allocation, where io.ReadAll would grow and copy its buffer a dozen
// times for a year-long inline load.
func ReadBody(r io.Reader, contentLength int64) ([]byte, error) {
	size := 512
	if contentLength > 0 {
		// One spare byte, so the read that reports EOF finds room
		// and does not grow a buffer already holding the whole body.
		size = int(min(contentLength, maxPresize)) + 1
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
