//! Network weight checkpointing.
//!
//! A tiny, versioned binary format for saving the trainable parameters of
//! a [`Network`] — so the best design found by a hyper-parameter search
//! can be kept or shipped:
//!
//! ```text
//! magic "HPWT" | version u32 | layer-buffer count u32 |
//!   per layer: value count u64 | values f32-LE…
//! ```
//!
//! Only parameters are stored — the architecture itself is a
//! [`crate::ArchSpec`]; the per-layer sizes let a reader check the
//! buffers against it. All integers are little-endian.

use std::io::Write;

use crate::Network;

/// Format magic bytes.
const MAGIC: [u8; 4] = *b"HPWT";
/// Current format version.
const VERSION: u32 = 1;

impl Network {
    /// Writes the network's trainable parameters as a checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_weights<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let buffers: Vec<Vec<f32>> = self
            .layers()
            .iter()
            .map(|l| l.param_values())
            .filter(|v| !v.is_empty())
            .collect();
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(buffers.len() as u32).to_le_bytes())?;
        for buffer in &buffers {
            w.write_all(&(buffer.len() as u64).to_le_bytes())?;
            for value in buffer {
                w.write_all(&value.to_le_bytes())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchSpec, LayerSpec};

    #[test]
    fn save_writes_the_versioned_layout() {
        let spec = ArchSpec::new(
            (1, 8, 8),
            4,
            vec![
                LayerSpec::conv(4, 3),
                LayerSpec::pool(2),
                LayerSpec::dense(16),
            ],
        )
        .unwrap();
        let net = Network::from_spec(&spec, 1).unwrap();
        let mut buf = Vec::new();
        net.save_weights(&mut buf).unwrap();
        assert_eq!(buf[..4], MAGIC);
        assert_eq!(buf[4..8], VERSION.to_le_bytes());
        // Conv, hidden dense and output dense carry parameters; the pool
        // does not.
        assert_eq!(buf[8..12], 3u32.to_le_bytes());
        let params: usize = net.layers().iter().map(|l| l.param_count()).sum();
        assert_eq!(buf.len(), 12 + 3 * 8 + 4 * params);
    }
}
