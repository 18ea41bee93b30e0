package fastq

import (
	"bufio"
	"io"

	"repro/internal/seq"
)

// DefaultChunkSize is the read-batch granularity of the streaming pipeline:
// large enough to keep the sharded spectrum engine's workers busy per Add,
// small enough that a chunk of typical short reads stays in the low
// megabytes.
const DefaultChunkSize = 2048

// ChunkReader adapts a FASTQ stream into fixed-size read chunks — the
// producer side of the out-of-core correction pipeline. It owns the
// underlying ReadCloser and closes it with Close.
type ChunkReader struct {
	r    *Reader
	rc   io.Closer
	size int
	done bool
}

// NewChunkReader wraps rc in a chunked FASTQ reader yielding up to size
// reads per Next (size <= 0 selects DefaultChunkSize).
func NewChunkReader(rc io.ReadCloser, size int) *ChunkReader {
	if size <= 0 {
		size = DefaultChunkSize
	}
	return &ChunkReader{r: NewReader(rc), rc: rc, size: size}
}

// Next returns the next chunk of reads. The final chunk may be short; once
// the stream is exhausted Next returns (nil, io.EOF). Any parse error ends
// the stream.
func (cr *ChunkReader) Next() ([]seq.Read, error) {
	if cr.done {
		return nil, io.EOF
	}
	chunk := make([]seq.Read, 0, cr.size)
	for len(chunk) < cr.size {
		rd, err := cr.r.Next()
		if err == io.EOF {
			cr.done = true
			if len(chunk) == 0 {
				return nil, io.EOF
			}
			return chunk, nil
		}
		if err != nil {
			cr.done = true
			return nil, err
		}
		chunk = append(chunk, rd)
	}
	return chunk, nil
}

// Close closes the underlying stream.
func (cr *ChunkReader) Close() error {
	cr.done = true
	return cr.rc.Close()
}

// Writer emits reads incrementally in FASTQ format — the consumer side of
// the streaming pipeline. Callers must Flush once done.
type Writer struct {
	bw  *bufio.Writer
	rec []byte // the current record, reused across reads
}

// NewWriter wraps w in a streaming FASTQ writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// WriteRead appends one read. Reads without quality scores get a constant
// placeholder score of 40.
func (w *Writer) WriteRead(rd seq.Read) error {
	if err := rd.Validate(); err != nil {
		return err
	}
	w.rec = appendRecord(w.rec[:0], rd)
	_, err := w.bw.Write(w.rec)
	return err
}

// recordLen is the length of rd's FASTQ record.
func recordLen(rd seq.Read) int {
	return len("@\n\n+\n\n") + len(rd.ID) + 2*len(rd.Seq)
}

// appendRecord appends rd's FASTQ record to dst: header, bases, separator
// and the quality line, scores clamped to MaxQuality and offset by
// PhredOffset (40 for every base of a read without scores). rd must be
// valid.
func appendRecord(dst []byte, rd seq.Read) []byte {
	dst = append(dst, '@')
	dst = append(dst, rd.ID...)
	dst = append(dst, '\n')
	dst = append(dst, rd.Seq...)
	dst = append(dst, "\n+\n"...)
	for i := range rd.Seq {
		q := byte(40)
		if rd.Qual != nil {
			q = rd.Qual[i]
		}
		dst = append(dst, min(q, MaxQuality)+PhredOffset)
	}
	return append(dst, '\n')
}

// WriteChunk appends a chunk of reads.
func (w *Writer) WriteChunk(reads []seq.Read) error {
	for _, rd := range reads {
		if err := w.WriteRead(rd); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }
