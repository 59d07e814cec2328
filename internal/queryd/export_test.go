package queryd

// The body codecs and their limit, for the external test package's
// allocation pins, benchmarks and limit test.
var (
	DecodeQueryBody    = decodeQueryBody
	AppendExecResponse = appendExecResponse
)

const MaxQueryBody = maxQueryBody
