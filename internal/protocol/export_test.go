package protocol

// TookFastPath reports whether DecodeRequest reads data by hand (the
// external tests pin the shapes served all day to the walk).
func TookFastPath(data []byte) bool {
	_, ok := readRequest(string(data))
	return ok
}

// DecodeColumns is the /rpc handler's decode: hand-parsed rows stay a
// column-wise batch (Request.Batch) instead of being boxed into Rows.
func DecodeColumns(data []byte) (Request, error) { return decodeRequest(data) }
