//! The memory device both cores' testbenches attach.

use std::cell::RefCell;
use std::rc::Rc;

use mate_netlist::{MateError, NetId};
use mate_rtl::Signal;
use mate_sim::{Device, DevicePort};

/// A memory image shared between its testbench device and the caller, so
/// the final contents outlive the run.
pub type SharedMemory<T> = Rc<RefCell<Vec<T>>>;

/// An asynchronous-read memory: every cycle it drives `rdata` with the
/// word at `addr` (modulo the memory size) and, if it has a write port
/// whose enable is high, stores the write data there.
///
/// It reads only the core's output buses and drives only an input bus, so
/// campaigns replay its responses from the golden trace.
pub(crate) struct Memory<T> {
    name: &'static str,
    words: SharedMemory<T>,
    /// `[addr]`, then `[we, wdata]` for a writable memory.
    reads: Vec<Vec<NetId>>,
    rdata: Vec<NetId>,
}

impl<T: Copy + Default> Memory<T> {
    /// A memory of `size` words preloaded with `image`; `write` is the
    /// `(we, wdata)` port pair, `None` for a ROM.
    ///
    /// # Errors
    ///
    /// Returns [`MateError::Device`] if `image` is longer than `size`.
    pub(crate) fn new(
        name: &'static str,
        size: usize,
        image: &[T],
        addr: &Signal,
        rdata: &Signal,
        write: Option<(&Signal, &Signal)>,
    ) -> Result<Self, MateError> {
        if image.len() > size {
            return Err(MateError::Device {
                device: name.to_owned(),
                net: None,
                message: format!(
                    "image of {} words overflows the {size}-word memory",
                    image.len()
                ),
            });
        }
        let mut words = vec![T::default(); size];
        words[..image.len()].copy_from_slice(image);
        let mut reads = vec![addr.nets().to_vec()];
        if let Some((we, wdata)) = write {
            reads.extend([we.nets().to_vec(), wdata.nets().to_vec()]);
        }
        Ok(Self {
            name,
            words: Rc::new(RefCell::new(words)),
            reads,
            rdata: rdata.nets().to_vec(),
        })
    }

    /// The shared handle on the memory contents.
    pub(crate) fn words(&self) -> SharedMemory<T> {
        self.words.clone()
    }
}

impl<T: Copy + Into<u64> + TryFrom<u64>> Device for Memory<T> {
    fn name(&self) -> &str {
        self.name
    }

    fn reads(&self) -> Vec<Vec<NetId>> {
        self.reads.clone()
    }

    fn drives(&self) -> Vec<Vec<NetId>> {
        vec![self.rdata.clone()]
    }

    fn on_cycle(&mut self, port: &mut DevicePort<'_, '_>) {
        let mut words = self.words.borrow_mut();
        let addr = port.read(0) as usize % words.len();
        port.write(0, words[addr].into());
        // The write-data bus is as wide as `T`, so the conversion holds.
        if self.reads.len() == 3 && port.read(1) != 0 {
            if let Ok(word) = T::try_from(port.read(2)) {
                words[addr] = word;
            }
        }
    }
}
