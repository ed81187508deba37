package protocol

// TookFastPath reports whether DecodeRequest parses data's rows by hand
// (the external fuzz test pins that the bench-shaped batch does).
func TookFastPath(data []byte) bool {
	var r Request
	return decodeAppend(data, &r)
}
