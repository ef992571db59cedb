package data

// TextBlockBytes lets the external tests aim records at block boundaries.
const TextBlockBytes = textBlockBytes
